package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/svc"
)

// TestLocalAndRemoteRenderIdentically is the -peers contract: fanning a
// figure's campaign through dreamd must render the same figure lines as
// running it in-process.
func TestLocalAndRemoteRenderIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick figure twice")
	}
	s, err := svc.New(svc.Options{Workers: 2, QueueDepth: 16, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	args := []string{"-run", "fig5", "-quick", "-workloads", "bwaves", "-journal", "off"}
	code, local, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local run exited %d: %s", code, errOut)
	}
	code, remote, errOut := runCLI(t, append(args, "-peers", ts.URL)...)
	if code != 0 {
		t.Fatalf("remote run exited %d: %s", code, errOut)
	}
	if got, want := figureLines(remote), figureLines(local); got != want {
		t.Errorf("renderings differ\n-- local --\n%s\n-- remote --\n%s", want, got)
	}
	if !strings.Contains(local, "Figure 5") {
		t.Errorf("local rendering holds no figure:\n%s", local)
	}
}

func TestRunFlagValidation(t *testing.T) {
	code, _, errOut := runCLI(t, "-run", "fig5", "-peers", "http://127.0.0.1:1", "-metrics", "jsonl")
	if code != 2 {
		t.Errorf("-peers with -metrics: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-peers") || !strings.Contains(errOut, "-metrics") {
		t.Errorf("stderr %q does not name both flags", errOut)
	}

	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Errorf("-list: exit %d, want 0", code)
	}
	if !strings.Contains(out, "fig5") {
		t.Errorf("-list output missing fig5:\n%s", out)
	}

	if code, _, _ := runCLI(t, "-run", "nope"); code != 1 {
		t.Errorf("unknown experiment: exit %d, want 1", code)
	}
}
