package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/harness"
)

// runCLI drives the CLI in-process with a fresh run cache and clean notice
// state, returning (exit code, stdout, stderr). The disk tier is off by
// default — fault-injection tests rely on simulations actually executing —
// and a test that wants it passes its own -cache-dir, which wins because
// the flag package keeps the last occurrence.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	exp.ResetCache()
	harness.ResetNotices()
	args = append([]string{"-cache-dir", ""}, args...)
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestWarmRerunIsByteIdenticalAndDiskServed populates a temp cache dir with
// one quick figure, then re-runs it after a full in-memory reset: the
// figure output must be byte-identical and the second run must report disk
// hits, proving the persistent tier round-trips results bit-exactly.
func TestWarmRerunIsByteIdenticalAndDiskServed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real quick figure twice")
	}
	dir := t.TempDir()
	args := []string{"-cache-dir", dir, "-run", "fig5", "-quick",
		"-workloads", "bwaves", "-journal", "off"}
	code, cold, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("cold run exit %d, stderr: %s", code, errOut)
	}
	code, warm, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("warm run exit %d, stderr: %s", code, errOut)
	}
	if got, want := figureLines(warm), figureLines(cold); got != want {
		t.Errorf("warm figure output differs from cold:\ncold:\n%s\nwarm:\n%s", want, got)
	}
	if !strings.Contains(warm, "[disk cache: ") {
		t.Fatalf("warm run printed no disk stats:\n%s", warm)
	}
	if strings.Contains(warm, "[disk cache: 0 hits") {
		t.Errorf("warm run served no disk hits:\n%s", warm)
	}
	// The reporting satellite: a fully disk-served rerun must still emit the
	// run-cache line, showing reuse rather than disappearing.
	if !strings.Contains(warm, "[run cache: ") {
		t.Errorf("warm run emitted no run-cache stats line:\n%s", warm)
	}
}

// figureLines strips the bracketed harness/stats lines and timing footer,
// leaving only the rendered figure content for byte comparison.
func figureLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "fig5") || !strings.Contains(out, "table1") {
		t.Errorf("listing missing experiments:\n%s", out)
	}
}

func TestUnknownExperimentExitsNonZero(t *testing.T) {
	code, _, errOut := runCLI(t, "-run", "nope")
	if code == 0 {
		t.Fatal("exit 0 for unknown experiment")
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr = %q", errOut)
	}
}

func TestJournalAndResumeSkip(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")

	// table1 and fig11 are analytic/Monte-Carlo (no full-system sims), so
	// this covers the journal round trip without long simulations.
	code, _, errOut := runCLI(t, "-run", "table1,fig11", "-quick", "-journal", jpath)
	if code != 0 {
		t.Fatalf("first run exit %d, stderr: %s", code, errOut)
	}
	j, err := harness.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig11"} {
		if !j.Completed(id) {
			t.Errorf("journal missing ok entry for %s: %+v", id, j.Entries())
		}
	}
	ents := j.Entries()
	if len(ents) != 2 {
		t.Fatalf("got %d entries, want 2", len(ents))
	}
	if ents[0].Output == "" || ents[0].ElapsedMS < 0 || ents[0].FinishedAt == "" {
		t.Errorf("entry not fully populated: %+v", ents[0])
	}

	// Resume must skip both completed experiments without re-running them.
	code, out, errOut := runCLI(t, "-run", "table1,fig11", "-quick", "-journal", jpath, "-resume")
	if code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, errOut)
	}
	if strings.Count(out, "skipping (resume)") != 2 {
		t.Errorf("resume did not skip both:\n%s", out)
	}
	j, err = harness.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j.Entries()); got != 2 {
		t.Errorf("resume appended entries: %d, want 2", got)
	}
}

func TestResumeWithoutJournalIsUsageError(t *testing.T) {
	code, _, errOut := runCLI(t, "-run", "table1", "-resume")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-resume needs a journal") {
		t.Errorf("stderr = %q", errOut)
	}
}

func TestInjectedFaultFailsRunAndJournalsIt(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	code, _, errOut := runCLI(t,
		"-run", "fig5", "-quick", "-workloads", "bwaves", "-journal", jpath,
		"-fault", "error:1")
	if code == 0 {
		t.Fatal("exit 0 with injected fault")
	}
	if !strings.Contains(errOut, "fig5") {
		t.Errorf("stderr does not name the experiment: %q", errOut)
	}
	j, err := harness.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if failed := j.Failed(); len(failed) != 1 || failed[0] != "fig5" {
		t.Errorf("Failed() = %v, want [fig5]", failed)
	}
}

func TestKeepGoingRunsPastFailure(t *testing.T) {
	// error:1 hits the first simulation (inside fig5); table1 is analytic
	// and must still run to completion afterwards.
	code, out, errOut := runCLI(t,
		"-run", "fig5,table1", "-quick", "-workloads", "bwaves",
		"-journal", "off", "-keep-going", "-fault", "error:1")
	if code == 0 {
		t.Fatal("exit 0 with a failed experiment")
	}
	if !strings.Contains(out, "[table1 done in") {
		t.Errorf("keep-going did not run table1:\n%s", out)
	}
	if !strings.Contains(errOut, "1 of 2 failed: fig5") {
		t.Errorf("missing failure summary: %q", errOut)
	}
}

func TestPerfStatsPrintsReport(t *testing.T) {
	// table1 is analytic (no full-system simulation), so the report must
	// show the figure with zero events and a "-" throughput, plus a total.
	code, out, errOut := runCLI(t, "-run", "table1", "-quick", "-journal", "off", "-perfstats")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "[perfstats]") {
		t.Fatalf("missing perfstats block:\n%s", out)
	}
	if !strings.Contains(out, "table1") || !strings.Contains(out, "total") {
		t.Errorf("perfstats missing rows:\n%s", out)
	}
}

func TestBadFaultSpecIsUsageError(t *testing.T) {
	code, _, errOut := runCLI(t, "-run", "table1", "-fault", "frobnicate:1")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown fault kind") {
		t.Errorf("stderr = %q", errOut)
	}
}
