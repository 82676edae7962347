package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsExportLints runs a small experiment with every exporter on and
// lints what it wrote, so the export formats stay an interface: JSONL lines
// carry a known kind and a supported schema_version, with exactly one run
// line per file; CSV files match the epoch-series header with rectangular
// numeric rows; Prometheus text is HELP/TYPE comments and dream_ samples.
func TestMetricsExportLints(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := runCLI(t, "-run", "fig5", "-quick", "-workloads", "bwaves",
		"-journal", "off", "-metrics", "jsonl,csv,prom", "-metrics-dir", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for ext, check := range map[string]func(string) error{
		".jsonl": lintJSONL, ".csv": lintCSV, ".prom": lintProm,
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("no %s files written", ext)
		}
		for _, f := range files {
			if err := check(f); err != nil {
				t.Error(err)
			}
		}
	}
}

// lintLines applies check to every non-blank line of path (numbered from 1)
// and rejects an empty file.
func lintLines(path string, check func(line int, text string) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%s: empty", path)
	}
	for i, text := range strings.Split(string(data), "\n") {
		if text = strings.TrimSpace(text); text == "" {
			continue
		}
		if err := check(i+1, text); err != nil {
			return fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
	}
	return nil
}

func lintJSONL(path string) error {
	runLines := 0
	err := lintLines(path, func(_ int, text string) error {
		var m struct {
			Kind          string `json:"kind"`
			SchemaVersion int    `json:"schema_version"`
		}
		if err := json.Unmarshal([]byte(text), &m); err != nil {
			return err
		}
		switch m.Kind {
		case "run":
			runLines++
		case "epoch":
		default:
			return fmt.Errorf("unknown kind %q", m.Kind)
		}
		if m.SchemaVersion < 1 || m.SchemaVersion > obs.ReportSchemaVersion {
			return fmt.Errorf("schema_version %d unsupported (max %d)", m.SchemaVersion, obs.ReportSchemaVersion)
		}
		return nil
	})
	if err == nil && runLines != 1 {
		err = fmt.Errorf("%s: %d \"kind\":\"run\" lines, want exactly 1", path, runLines)
	}
	return err
}

func lintCSV(path string) error {
	cols := len(strings.Split(obs.CSVHeader, ","))
	return lintLines(path, func(line int, text string) error {
		if line == 1 {
			if text != obs.CSVHeader {
				return fmt.Errorf("header %q, want %q", text, obs.CSVHeader)
			}
			return nil
		}
		fields := strings.Split(text, ",")
		if len(fields) != cols {
			return fmt.Errorf("%d columns, header has %d", len(fields), cols)
		}
		for _, v := range fields {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				return fmt.Errorf("non-numeric field %q", v)
			}
		}
		return nil
	})
}

var promSample = regexp.MustCompile(`^dream_[a-z0-9_]+(\{[^{}]*\})? (NaN|[-+0-9.eE]+|\+Inf)$`)

func lintProm(path string) error {
	return lintLines(path, func(_ int, text string) error {
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("malformed comment %q", text)
			}
			return nil
		}
		if !promSample.MatchString(text) {
			return fmt.Errorf("malformed sample %q", text)
		}
		return nil
	})
}
