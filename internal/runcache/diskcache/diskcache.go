// Package diskcache is the persistent tier under the process-wide run cache
// (internal/runcache): a content-addressed store of opaque byte payloads on
// the local filesystem, so that a simulation computed by one process is a
// cache hit for every later process asking for the same content hash.
//
// The store holds one file per entry in a sharded layout
// (<dir>/<aa>/<hash>, where <aa> is the first byte of the SHA-256 of the
// namespaced key), written atomically (temp file + rename) and verified on
// read (magic, format version, stored key echo, payload checksum). A failed
// verification of any kind — truncation, bit rot, a different key hashed to
// the same file, an unreadable header — is never an error: the entry is
// dropped and reported as a miss, so the caller recomputes. Concurrent
// processes filling the same entry are deduplicated best-effort with
// per-entry lock files; the store stays correct without them (atomic rename
// makes a duplicated fill a harmless last-writer-wins), locks only avoid
// duplicated work. Total size is capped and enforced with LRU-by-mtime
// garbage collection (reads touch mtimes).
package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxBytes caps the store at 4 GiB unless the caller chooses a
// budget: enough for every figure's trace sets and results many times over,
// small enough to be harmless on a developer machine.
const DefaultMaxBytes = 4 << 30

// Entry file layout (all integers little-endian or uvarint):
//
//	magic "DRC1" | format byte | uvarint keyLen | key | uvarint payloadLen |
//	payload | 8-byte CRC-64/ECMA of payload
//
// The key echo is the full namespaced key, not its hash: a read verifies it
// so a (vanishingly unlikely) hash collision or a mis-renamed file degrades
// to a miss instead of serving the wrong content.
const (
	magic         = "DRC1"
	formatVersion = 1
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Stats is a point-in-time snapshot of disk-tier activity.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts successful fills.
	Hits, Misses, Puts int64
	// Evictions counts entries removed by the size-cap GC.
	Evictions int64
	// Corrupt counts entries dropped by read-side verification (truncated,
	// checksum mismatch, key mismatch, undecodable payload).
	Corrupt int64
	// Errors counts failed fills and lock-file I/O failures; the store keeps
	// serving (compute-only for the affected keys).
	Errors int64
	// LockWaits counts fills that found another process's entry lock.
	LockWaits int64
	// BytesHeld and Entries describe the resident set.
	BytesHeld, Entries int64
}

// Store is one on-disk cache directory. All methods are safe for concurrent
// use by multiple goroutines and cooperate across processes.
type Store struct {
	dir      string
	maxBytes int64

	// Notice, when non-nil, receives once-per-key operational notices (the
	// run harness wires it to harness.Noticef). It must be safe for
	// concurrent use. Set it before the store is shared.
	Notice func(key, format string, args ...any)

	// Lock-file tuning, overridable before the store is shared (tests).
	// LockWait bounds how long a fill waits on another process's lock before
	// duplicating the computation; LockPoll is the polling interval; a lock
	// file older than LockStale is presumed abandoned (crashed holder) and
	// broken.
	LockWait, LockPoll, LockStale time.Duration

	mu    sync.Mutex
	size  int64
	count int64

	hits, misses, puts, evictions, corrupt, errs, lockWaits atomic.Int64
}

// Open returns a store rooted at dir, creating it if needed and probing
// writability, then sizing the resident set (and sweeping stale temp and
// lock files). maxBytes <= 0 selects DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	probe, err := os.CreateTemp(dir, "probe-*")
	if err != nil {
		return nil, fmt.Errorf("diskcache: cache dir not writable: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	s := &Store{
		dir:       dir,
		maxBytes:  maxBytes,
		LockWait:  90 * time.Second,
		LockPoll:  50 * time.Millisecond,
		LockStale: 15 * time.Minute,
	}
	s.size, s.count = s.sweep()
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entryPath maps a namespaced key to its sharded file path.
func (s *Store) entryPath(ns, key string) string {
	h := sha256.Sum256([]byte(ns + "\x00" + key))
	hx := hex.EncodeToString(h[:])
	return filepath.Join(s.dir, hx[:2], hx[2:])
}

// isEntryName reports whether a file name is a cache entry (62 lowercase hex
// characters — the SHA-256 tail), as opposed to a lock or temp file.
func isEntryName(name string) bool {
	if len(name) != 62 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the payload stored for the namespaced key. Every failure mode
// — absent, truncated, checksum mismatch, key mismatch — is a miss; corrupt
// entries are dropped so the recomputed fill replaces them.
func (s *Store) Get(ns, key string) ([]byte, bool) {
	p := s.entryPath(ns, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(raw, ns+"\x00"+key)
	if err != nil {
		s.dropCorrupt(p, ns, key, err)
		s.misses.Add(1)
		return nil, false
	}
	now := time.Now()
	os.Chtimes(p, now, now) // LRU touch; best effort
	s.hits.Add(1)
	return payload, true
}

// NoteDecodeFailure drops an entry whose payload passed the checksum but
// could not be decoded by the caller (e.g. a schema_version from a newer
// writer). It is counted as corruption: the next fill rewrites the entry.
func (s *Store) NoteDecodeFailure(ns, key string, err error) {
	s.dropCorrupt(s.entryPath(ns, key), ns, key, err)
}

func (s *Store) dropCorrupt(path, ns, key string, err error) {
	s.corrupt.Add(1)
	if rmErr := os.Remove(path); rmErr == nil {
		s.mu.Lock()
		// Resync lazily on the next sweep; a negative drift here is benign.
		if s.count > 0 {
			s.count--
		}
		s.mu.Unlock()
	}
	s.noticef(path, "diskcache: dropped corrupt %s entry (recomputing): %v", ns, err)
}

// decodeEntry verifies one raw entry against the expected namespaced key and
// returns its payload.
func decodeEntry(raw []byte, wantKey string) ([]byte, error) {
	if len(raw) < len(magic)+1 || string(raw[:len(magic)]) != magic {
		return nil, errors.New("bad magic")
	}
	if raw[len(magic)] != formatVersion {
		return nil, fmt.Errorf("entry format %d, want %d", raw[len(magic)], formatVersion)
	}
	rest := raw[len(magic)+1:]
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || keyLen > uint64(len(rest)-n) {
		return nil, errors.New("truncated key header")
	}
	rest = rest[n:]
	if string(rest[:keyLen]) != wantKey {
		return nil, errors.New("stored key does not match requested key")
	}
	rest = rest[keyLen:]
	payLen, n := binary.Uvarint(rest)
	if n <= 0 || payLen > uint64(len(rest)-n) {
		return nil, errors.New("truncated payload header")
	}
	rest = rest[n:]
	if uint64(len(rest)) != payLen+8 {
		return nil, fmt.Errorf("entry size mismatch: %d trailing bytes, want payload %d + 8-byte checksum", len(rest), payLen)
	}
	payload := rest[:payLen]
	want := binary.LittleEndian.Uint64(rest[payLen:])
	if got := crc64.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("payload checksum mismatch: %016x, want %016x", got, want)
	}
	return payload, nil
}

// encodeEntry renders the on-disk form of one entry.
func encodeEntry(nsKey string, payload []byte) []byte {
	var keyLenBuf [binary.MaxVarintLen64]byte
	keyLenN := binary.PutUvarint(keyLenBuf[:], uint64(len(nsKey)))
	var payLenBuf [binary.MaxVarintLen64]byte
	payLenN := binary.PutUvarint(payLenBuf[:], uint64(len(payload)))

	out := make([]byte, 0, len(magic)+1+keyLenN+len(nsKey)+payLenN+len(payload)+8)
	out = append(out, magic...)
	out = append(out, formatVersion)
	out = append(out, keyLenBuf[:keyLenN]...)
	out = append(out, nsKey...)
	out = append(out, payLenBuf[:payLenN]...)
	out = append(out, payload...)
	var crcBuf [8]byte
	binary.LittleEndian.PutUint64(crcBuf[:], crc64.Checksum(payload, crcTable))
	return append(out, crcBuf[:]...)
}

// Put stores the payload for the namespaced key, atomically (temp file in
// the shard directory + rename) so readers only ever see complete entries.
// Failures are counted and noticed once per entry, never returned: the
// caller already holds the computed value, so a broken cache degrades to
// compute-only.
func (s *Store) Put(ns, key string, payload []byte) {
	p := s.entryPath(ns, key)
	shard := filepath.Dir(p)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		s.putFailed(p, ns, err)
		return
	}
	var oldSize int64
	if fi, err := os.Stat(p); err == nil {
		oldSize = fi.Size()
	}
	tmp, err := os.CreateTemp(shard, "tmp-*")
	if err != nil {
		s.putFailed(p, ns, err)
		return
	}
	data := encodeEntry(ns+"\x00"+key, payload)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.putFailed(p, ns, err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.putFailed(p, ns, err)
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		s.putFailed(p, ns, err)
		return
	}
	s.puts.Add(1)
	s.mu.Lock()
	s.size += int64(len(data)) - oldSize
	if oldSize == 0 {
		s.count++
	}
	over := s.size > s.maxBytes
	s.mu.Unlock()
	if over {
		s.gc(p)
	}
}

func (s *Store) putFailed(path, ns string, err error) {
	s.errs.Add(1)
	s.noticef(path, "diskcache: %s fill failed (continuing compute-only): %v", ns, err)
}

// gc enforces the size cap: entries are removed oldest-mtime-first (reads
// touch mtimes, so this is LRU) down to 90% of the cap, never removing the
// just-written entry. The resident set is re-walked first, so drift from
// other processes sharing the directory self-corrects.
func (s *Store) gc(keep string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type ent struct {
		path  string
		mtime time.Time
		size  int64
	}
	var ents []ent
	var total int64
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !isEntryName(d.Name()) {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		ents = append(ents, ent{path, fi.ModTime(), fi.Size()})
		total += fi.Size()
		return nil
	})
	sort.Slice(ents, func(i, j int) bool { return ents[i].mtime.Before(ents[j].mtime) })
	low := s.maxBytes - s.maxBytes/10
	live := int64(len(ents))
	for _, e := range ents {
		if total <= low {
			break
		}
		if e.path == keep {
			continue
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			live--
			s.evictions.Add(1)
		}
	}
	s.size, s.count = total, live
}

// sweep sizes the resident set and removes abandoned temp files and stale
// locks left by crashed processes.
func (s *Store) sweep() (size, count int64) {
	staleTmp := time.Now().Add(-time.Hour)
	staleLock := time.Now().Add(-s.LockStale)
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		if isEntryName(name) {
			if fi, err := d.Info(); err == nil {
				size += fi.Size()
				count++
			}
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		switch {
		case filepath.Ext(name) == ".lock" && fi.ModTime().Before(staleLock):
			os.Remove(path)
		case fi.ModTime().Before(staleTmp):
			os.Remove(path) // probe-*/tmp-* débris
		}
		return nil
	})
	return size, count
}

// Lock best-effort serializes one entry's fill across processes. It returns
// a release function (never nil). If another process holds the entry's lock
// file, Lock waits — polling for the entry to appear or the lock to clear —
// up to LockWait before giving up and letting the caller duplicate the
// computation (correct either way; rename is atomic). Callers must re-check
// Get after Lock returns: the usual reason the wait ends is that the
// contending process finished the fill.
func (s *Store) Lock(ns, key string) (release func()) {
	p := s.entryPath(ns, key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		s.errs.Add(1)
		return func() {}
	}
	lockPath := p + ".lock"
	deadline := time.Now().Add(s.LockWait)
	waited := false
	for {
		f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(lockPath) }
		}
		if !errors.Is(err, fs.ErrExist) {
			// Lock I/O is broken (permissions, read-only FS): proceed
			// without cross-process dedup.
			s.errs.Add(1)
			s.noticef(lockPath, "diskcache: entry lock unavailable (continuing without cross-process dedup): %v", err)
			return func() {}
		}
		if !waited {
			waited = true
			s.lockWaits.Add(1)
		}
		if fi, err := os.Stat(lockPath); err == nil && time.Since(fi.ModTime()) > s.LockStale {
			os.Remove(lockPath) // break the abandoned lock and retry
			continue
		}
		if _, err := os.Stat(p); err == nil {
			return func() {} // contender finished the fill
		}
		if time.Now().After(deadline) {
			return func() {} // give up waiting; duplicate the computation
		}
		time.Sleep(s.LockPoll)
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	size, count := s.size, s.count
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
		Errors:    s.errs.Load(),
		LockWaits: s.lockWaits.Load(),
		BytesHeld: size,
		Entries:   count,
	}
}

// noticef emits one once-per-key operational notice if a sink is attached.
func (s *Store) noticef(key, format string, args ...any) {
	if s.Notice != nil {
		s.Notice("diskcache:"+key, format, args...)
	}
}
