package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTestLedger(t *testing.T, path, owner string) *Ledger {
	t.Helper()
	l, err := OpenLedger(path, owner)
	if err != nil {
		t.Fatalf("OpenLedger(%s): %v", owner, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestLedgerClaimCompleteCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.leases.jsonl")
	l := openTestLedger(t, path, "shard-a")

	const n = 3
	seen := make(map[int]int64)
	for i := 0; i < n; i++ {
		cell, fence, stolen, ok, err := l.Claim(n, time.Minute, nil)
		if err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		if stolen {
			t.Fatalf("claim %d reported stolen on a fresh ledger", cell)
		}
		if fence != 1 {
			t.Fatalf("cell %d first fence = %d, want 1", cell, fence)
		}
		seen[cell] = fence
	}
	if len(seen) != n {
		t.Fatalf("claimed %d distinct cells, want %d", len(seen), n)
	}
	// No claimable cell left while all leases are live.
	if _, _, _, ok, err := l.Claim(n, time.Minute, nil); ok || err != nil {
		t.Fatalf("claim on fully leased ledger: ok=%v err=%v", ok, err)
	}

	for cell, fence := range seen {
		payload, _ := json.Marshal(map[string]int{"cell": cell})
		if err := l.Complete(cell, fence, LeaseStatusOK, "", payload); err != nil {
			t.Fatalf("complete %d: %v", cell, err)
		}
	}
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := l.DoneCount(); got != n {
		t.Fatalf("DoneCount = %d, want %d", got, n)
	}

	// A fresh reader folds the same state from disk.
	l2 := openTestLedger(t, path, "shard-b")
	if got := l2.DoneCount(); got != n {
		t.Fatalf("fresh reader DoneCount = %d, want %d", got, n)
	}
	rec, ok := l2.Done(1)
	if !ok || rec.Owner != "shard-a" || rec.Status != LeaseStatusOK {
		t.Fatalf("Done(1) = %+v, %v", rec, ok)
	}
	if _, _, _, ok, _ := l2.Claim(n, time.Minute, nil); ok {
		t.Fatal("claimed a cell on a fully completed campaign")
	}
}

func TestLedgerExpiryReclaimAndZombieFencing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.leases.jsonl")
	a := openTestLedger(t, path, "shard-a")
	b := openTestLedger(t, path, "shard-b")

	// A claims with a tiny TTL, then "crashes" (stops making progress).
	cell, fenceA, _, ok, err := a.Claim(1, 10*time.Millisecond, nil)
	if err != nil || !ok || cell != 0 {
		t.Fatalf("a.Claim: cell=%d ok=%v err=%v", cell, ok, err)
	}
	// B cannot steal a live lease.
	if _, _, _, ok, _ := b.Claim(1, time.Minute, nil); ok {
		t.Fatal("b stole a live lease")
	}
	time.Sleep(20 * time.Millisecond)

	// After expiry B reclaims with a higher fence.
	cellB, fenceB, stolen, ok, err := b.Claim(1, time.Minute, nil)
	if err != nil || !ok || cellB != 0 {
		t.Fatalf("b.Claim after expiry: ok=%v err=%v", ok, err)
	}
	if !stolen {
		t.Fatal("reclaim of an expired foreign lease not reported as stolen")
	}
	if fenceB != fenceA+1 {
		t.Fatalf("stolen fence = %d, want %d", fenceB, fenceA+1)
	}

	// The zombie wakes up and writes its completion under the old fence:
	// every reader must discard it.
	if err := a.Complete(0, fenceA, LeaseStatusOK, "", []byte(`{"zombie":true}`)); err != nil {
		t.Fatalf("zombie complete: %v", err)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if b.DoneCount() != 0 {
		t.Fatal("zombie completion was accepted")
	}
	if b.RejectedCompletions() == 0 {
		t.Fatal("zombie completion not counted as rejected")
	}

	// B's completion under the winning fence is accepted — including by a
	// reader that replays the whole interleaved history from disk.
	if err := b.Complete(0, fenceB, LeaseStatusOK, "", []byte(`{"winner":true}`)); err != nil {
		t.Fatalf("b.Complete: %v", err)
	}
	fresh := openTestLedger(t, path, "shard-c")
	rec, ok := fresh.Done(0)
	if !ok {
		t.Fatal("winning completion not visible to fresh reader")
	}
	if rec.Owner != "shard-b" || string(rec.Result) != `{"winner":true}` {
		t.Fatalf("accepted completion = %+v, want shard-b's", rec)
	}
	if fresh.RejectedCompletions() == 0 {
		t.Fatal("fresh reader did not observe the fenced-out zombie record")
	}
}

func TestLedgerFailedCompletionIsRecorded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.leases.jsonl")
	l := openTestLedger(t, path, "shard-a")
	_, fence, _, ok, err := l.Claim(1, time.Minute, nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := l.Complete(0, fence, "bogus", "", nil); err == nil {
		t.Fatal("Complete accepted an invalid status")
	}
	if err := l.Complete(0, fence, LeaseStatusFail, "sim exploded", nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	rec, ok := l.Done(0)
	if !ok || rec.Status != LeaseStatusFail || rec.Error != "sim exploded" {
		t.Fatalf("failed completion = %+v, %v", rec, ok)
	}
}

func TestLedgerConcurrentShards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.leases.jsonl")
	const n = 40
	const shards = 4
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		l := openTestLedger(t, path, "shard-"+string(rune('a'+s)))
		wg.Add(1)
		go func(l *Ledger) {
			defer wg.Done()
			for {
				cell, fence, _, ok, err := l.Claim(n, time.Minute, nil)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if !ok {
					return
				}
				if err := l.Complete(cell, fence, LeaseStatusOK, "", nil); err != nil {
					t.Errorf("complete %d: %v", cell, err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	fresh := openTestLedger(t, path, "verifier")
	if got := fresh.DoneCount(); got != n {
		t.Fatalf("DoneCount = %d, want %d (every cell completed exactly once)", got, n)
	}
}

func TestLedgerSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.leases.jsonl")
	l := openTestLedger(t, path, "shard-a")
	_, fence, _, ok, err := l.Claim(2, time.Minute, nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := l.Complete(0, fence, LeaseStatusOK, "", nil); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write glued to the next shard's append: one corrupt
	// complete line in the middle of the file.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"lea` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, fence2, _, ok, err := l.Claim(2, time.Minute, nil); err != nil || !ok {
		t.Fatalf("claim after corrupt line: ok=%v err=%v", ok, err)
	} else if err := l.Complete(1, fence2, LeaseStatusOK, "", nil); err != nil {
		t.Fatal(err)
	}
	fresh := openTestLedger(t, path, "verifier")
	if got := fresh.DoneCount(); got != 2 {
		t.Fatalf("DoneCount = %d, want 2 (corrupt line skipped, later records intact)", got)
	}
}

// appendRaw writes ledger records straight to the file, bypassing Claim's
// refresh, so a test can stage the interleaving of a claim race exactly.
func appendRaw(t *testing.T, path string, recs ...LeaseRecord) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rec := range recs {
		rec.SchemaVersion = LeaseSchemaVersion
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerFirstLeaseAtFenceWins stages the claim race two shards run when
// both append fence 1 for one cell before either re-reads the file. The
// earlier lease must win for every reader, so only its owner's completion is
// accepted: the later claimant reads itself as the loser and never runs the
// cell.
func TestLedgerFirstLeaseAtFenceWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.leases.jsonl")
	a := openTestLedger(t, path, "shard-a")
	b := openTestLedger(t, path, "shard-b")
	deadline := time.Now().Add(time.Hour).UnixMilli()
	appendRaw(t, path,
		LeaseRecord{Type: leaseTypeLease, Cell: 0, Owner: "shard-a", Fence: 1, DeadlineMS: deadline},
		LeaseRecord{Type: leaseTypeLease, Cell: 0, Owner: "shard-b", Fence: 1, DeadlineMS: deadline})

	// The loser completes first in file order; its completion is fenced out.
	if err := b.Complete(0, 1, LeaseStatusOK, "", []byte(`{"owner":"b"}`)); err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(0, 1, LeaseStatusOK, "", []byte(`{"owner":"a"}`)); err != nil {
		t.Fatal(err)
	}
	for _, l := range []*Ledger{a, b, openTestLedger(t, path, "verifier")} {
		if err := l.Refresh(); err != nil {
			t.Fatal(err)
		}
		rec, ok := l.Done(0)
		if !ok || rec.Owner != "shard-a" || string(rec.Result) != `{"owner":"a"}` {
			t.Fatalf("%s reads completion %+v (ok=%v), want shard-a's", l.Owner(), rec, ok)
		}
		if got := l.RejectedCompletions(); got != 1 {
			t.Fatalf("%s rejected %d completions, want 1 (shard-b's)", l.Owner(), got)
		}
	}
}
