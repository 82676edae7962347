package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeCacheHitAndSigtermDrain drives the real server loop end to end:
// boot on an ephemeral port, serve the same request twice (second from
// cache), then SIGTERM and require a clean drain exit. This is the same
// sequence the CI smoke job runs against the built binary.
func TestServeCacheHitAndSigtermDrain(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{
			"-addr", "127.0.0.1:0",
			"-cache-dir", filepath.Join(dir, "cache"),
			"-journal", filepath.Join(dir, "results", "journal.jsonl"),
			"-workers", "2",
			"-sim-timeout", "30s",
		}, &stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("server never came up; stderr:\n%s", stderr.String())
	}
	base := "http://" + addr

	body := `{"workload":"xz","scheme":"base","trh":2000,"cores":2,"accessespercore":2000,"seed":11}`
	post := func() (int, map[string]json.RawMessage) {
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}
	code, first := post()
	if code != http.StatusOK {
		t.Fatalf("first request = %d", code)
	}
	code, second := post()
	if code != http.StatusOK || string(second["cache_hit"]) != "true" {
		t.Fatalf("second request = %d, cache_hit=%s, want a hit", code, second["cache_hit"])
	}
	if !bytes.Equal(first["result"], second["result"]) {
		t.Fatal("cached result not byte-identical")
	}
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "drained cleanly") {
		t.Errorf("missing drain message; stdout:\n%s", stdout.String())
	}
}

// TestZeroRetriesIsUsageError pins -retries as a count of total attempts:
// 0 would otherwise read as "unset" and silently keep the default policy.
func TestZeroRetriesIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-retries", "0"}, &stdout, &stderr, nil); code != 2 {
		t.Fatalf("-retries 0: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-retries") {
		t.Errorf("stderr %q does not name the flag", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("server started despite the usage error:\n%s", stdout.String())
	}
}
