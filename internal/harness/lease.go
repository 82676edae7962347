package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Lease ledger: coordinator-free work-stealing over a shared file.
//
// A campaign's cells are claimed and completed by appending JSONL records to
// one ledger file that every shard opens with O_APPEND. Unlike Journal
// (single-writer, truncate-repairs-torn-tail), the ledger is multi-writer:
// each record is written with a single write(2) call, which the kernel
// serializes atomically for O_APPEND files on local filesystems, so records
// from concurrent shards interleave at line granularity.
//
// Protocol invariants (documented for operators in DESIGN.md):
//
//   - The winning lease for a cell is the FIRST lease record in file order
//     at the highest fence (ignoring leases appended after a completion): a
//     lease replaces the winner only with a strictly higher fence. A shard
//     claims by appending a lease with fence = previous winning fence + 1,
//     then re-reading the file: it owns the cell only if its record is the
//     winning lease. Two shards racing for one cell both append the same
//     fence; the earlier append wins and the later one reads itself as
//     the loser, so a claim is exclusive without a coordinator.
//   - A completion record is accepted only if its (owner, fence) pair equals
//     the cell's winning lease — a zombie shard resuming after its lease
//     expired and was stolen writes a completion that every reader discards
//     (fencing). Completions are fsync'd before the cell is reported done.
//   - Leases carry a wall-clock deadline. An expired lease is reclaimable:
//     a crashed shard loses at most its leased cells to the timeout, never
//     the campaign.
//   - Execution is at-least-once (a stolen lease can run a cell twice: the
//     expired owner may still be computing; a lost claim race never does),
//     merging is at-most-once (first completion in file order wins,
//     duplicates are dropped). Cells are deterministic, so duplicated
//     execution burns time but never correctness.
//   - A torn or corrupt line (kill mid-write; at most one more line glued to
//     it by the next appender) is skipped leniently: the lost record is a
//     lease (re-claimed after expiry) or a completion (cell re-executed),
//     both absorbed by the protocol.

// LeaseSchemaVersion versions the ledger record shape.
const LeaseSchemaVersion = 1

// Ledger record types.
const (
	leaseTypeLease = "lease"
	leaseTypeDone  = "done"
)

// Completion statuses.
const (
	LeaseStatusOK   = "ok"
	LeaseStatusFail = "fail"
)

// LeaseRecord is one ledger line: a claim (type "lease") or a completion
// (type "done"). Completions embed the cell's result, so any shard can serve
// any completed cell from the ledger alone — the disk cache makes that fast,
// the ledger makes it correct.
type LeaseRecord struct {
	SchemaVersion int    `json:"schema_version"`
	Type          string `json:"type"`
	Cell          int    `json:"cell"`
	Owner         string `json:"owner"`
	Fence         int64  `json:"fence"`
	// DeadlineMS is the lease expiry as Unix milliseconds (type "lease").
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Status is LeaseStatusOK or LeaseStatusFail (type "done").
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Result is the completed cell's serialized result (type "done", ok).
	Result json.RawMessage `json:"result,omitempty"`
}

// leaseCell is the folded state of one cell: its winning lease and accepted
// completion, per the file-order rules above.
type leaseCell struct {
	lease *LeaseRecord
	done  *LeaseRecord
}

// Ledger is one shard's handle on a shared lease file. All methods are
// goroutine-safe; cross-process safety comes from O_APPEND line atomicity
// plus the re-read-after-append claim verification.
type Ledger struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	owner string
	off   int64
	cells map[int]*leaseCell

	rejectedDones int64
}

// OpenLedger opens (creating if needed) the shared lease file at path.
// owner identifies this shard in lease and completion records; two live
// shards must never share an owner id.
func OpenLedger(path, owner string) (*Ledger, error) {
	if owner == "" {
		return nil, errors.New("harness: ledger owner id must be non-empty")
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: creating ledger dir: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: opening ledger: %w", err)
	}
	l := &Ledger{f: f, path: path, owner: owner, cells: make(map[int]*leaseCell)}
	if err := l.Refresh(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Path reports the ledger file path.
func (l *Ledger) Path() string { return l.path }

// Owner reports this shard's owner id.
func (l *Ledger) Owner() string { return l.owner }

// Close releases the file handle. The ledger's records remain on disk for
// other shards (and post-mortems); campaign ledgers are cheap and left to
// the campaign directory's lifecycle.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Refresh folds any records appended since the last read (by this or any
// other shard) into the in-memory cell state.
func (l *Ledger) Refresh() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refreshLocked()
}

func (l *Ledger) refreshLocked() error {
	fi, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("harness: ledger stat: %w", err)
	}
	size := fi.Size()
	if size <= l.off {
		return nil
	}
	buf := make([]byte, size-l.off)
	if _, err := l.f.ReadAt(buf, l.off); err != nil {
		return fmt.Errorf("harness: ledger read: %w", err)
	}
	// Consume only complete lines: a trailing fragment is another shard's
	// in-flight append and is re-read whole on the next refresh.
	for {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			return nil
		}
		line := bytes.TrimSpace(buf[:nl])
		l.off += int64(nl + 1)
		buf = buf[nl+1:]
		if len(line) == 0 {
			continue
		}
		var rec LeaseRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Multi-writer file: a corrupt line (torn write glued to the next
			// append) loses one record, which the protocol absorbs. Skip it
			// loudly, once per ledger.
			Noticef("ledger-parse-"+l.path,
				"harness: ledger %s: skipping unparseable record (%v); protocol absorbs the loss", l.path, err)
			continue
		}
		l.applyLocked(&rec)
	}
}

// applyLocked folds one record under the file-order rules.
func (l *Ledger) applyLocked(rec *LeaseRecord) {
	st := l.cells[rec.Cell]
	if st == nil {
		st = &leaseCell{}
		l.cells[rec.Cell] = st
	}
	switch rec.Type {
	case leaseTypeLease:
		if st.done != nil {
			return // completed cell: a late lease is meaningless
		}
		if st.lease != nil && rec.Fence <= st.lease.Fence {
			return // lost the claim race: the first lease at a fence wins
		}
		st.lease = rec
	case leaseTypeDone:
		if st.done != nil {
			l.rejectedDones++ // duplicate completion: first in file order won
			return
		}
		if st.lease == nil || st.lease.Owner != rec.Owner || st.lease.Fence != rec.Fence {
			l.rejectedDones++ // fenced-out zombie completion
			return
		}
		st.done = rec
	}
}

// appendLocked marshals and appends one record; sync forces it to disk.
func (l *Ledger) appendLocked(rec LeaseRecord, sync bool) error {
	rec.SchemaVersion = LeaseSchemaVersion
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("harness: ledger encode: %w", err)
	}
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("harness: ledger append: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("harness: ledger sync: %w", err)
		}
	}
	return nil
}

// Claim leases the lowest-indexed claimable cell in [0, n): not completed,
// not under a live lease, and accepted by eligible (nil = all). It appends a
// lease with fence = winning fence + 1, re-reads the file, and only reports
// ownership if its record is the winning lease — losing the append race to
// another shard simply moves on to the next cell. stolen reports that the
// claim superseded another owner's expired lease.
func (l *Ledger) Claim(n int, ttl time.Duration, eligible func(cell int) bool) (cell int, fence int64, stolen bool, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		return 0, 0, false, false, err
	}
	now := time.Now().UnixMilli()
	for i := 0; i < n; i++ {
		if eligible != nil && !eligible(i) {
			continue
		}
		var prev *LeaseRecord
		if st := l.cells[i]; st != nil {
			if st.done != nil {
				continue
			}
			prev = st.lease
			if prev != nil && prev.DeadlineMS > now {
				continue // live lease held elsewhere
			}
		}
		f := int64(1)
		if prev != nil {
			f = prev.Fence + 1
		}
		rec := LeaseRecord{
			Type: leaseTypeLease, Cell: i, Owner: l.owner, Fence: f,
			DeadlineMS: now + ttl.Milliseconds(),
		}
		if err := l.appendLocked(rec, false); err != nil {
			return 0, 0, false, false, err
		}
		if err := l.refreshLocked(); err != nil {
			return 0, 0, false, false, err
		}
		st := l.cells[i]
		if st != nil && st.done == nil && st.lease != nil &&
			st.lease.Owner == l.owner && st.lease.Fence == f {
			return i, f, prev != nil && prev.Owner != l.owner, true, nil
		}
		// Lost the append race (or the cell completed meanwhile): scan on.
	}
	return 0, 0, false, false, nil
}

// Complete appends this shard's fsync'd completion for a cell it leased.
// status is LeaseStatusOK (result holds the serialized cell result) or
// LeaseStatusFail (errMsg says why). Whether the completion is *accepted* is
// decided by readers under the fencing rule; a zombie's late completion is
// appended here and discarded everywhere.
func (l *Ledger) Complete(cell int, fence int64, status, errMsg string, result []byte) error {
	if status != LeaseStatusOK && status != LeaseStatusFail {
		return fmt.Errorf("harness: ledger completion status %q (want %q or %q)",
			status, LeaseStatusOK, LeaseStatusFail)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(LeaseRecord{
		Type: leaseTypeDone, Cell: cell, Owner: l.owner, Fence: fence,
		Status: status, Error: errMsg, Result: json.RawMessage(result),
	}, true)
}

// Done reports the accepted completion record for a cell, if any. Callers
// should Refresh first to observe other shards' progress.
func (l *Ledger) Done(cell int) (LeaseRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st := l.cells[cell]; st != nil && st.done != nil {
		return *st.done, true
	}
	return LeaseRecord{}, false
}

// DoneCount reports how many cells have accepted completions.
func (l *Ledger) DoneCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, st := range l.cells {
		if st.done != nil {
			n++
		}
	}
	return n
}

// RejectedCompletions counts completion records this reader discarded under
// the fencing or first-wins rules (observability; a non-zero value after a
// crash test is the zombie-fencing proof).
func (l *Ledger) RejectedCompletions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rejectedDones
}
