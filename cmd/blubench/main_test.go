package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"blugpu/internal/bench"
	"blugpu/internal/explain"
	"blugpu/internal/trace"
)

// TestTraceAndExplainExports runs what `blubench -sf 0.004 -trace T
// -explain E fig5` writes and validates both files: the Chrome export
// against the trace-event schema, and every EXPLAIN ANALYZE report
// against the report schema, its decoder and full reconciliation (no
// unattributed operators, no orphaned device events, no monitor-vs-span
// counter mismatches).
func TestTraceAndExplainExports(t *testing.T) {
	tracer := trace.New()
	h, err := bench.NewHarness(bench.Config{SF: 0.004, Seed: 20160626, Devices: 2, Degree: 24, Trace: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run("fig5", io.Discard); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("trace export: %v", err)
	}

	path := filepath.Join(t.TempDir(), "explain.json")
	if err := writeExplainReports(h, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("not a JSON array of reports: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty report array")
	}
	for i, doc := range raw {
		if err := explain.ValidateReport(doc); err != nil {
			t.Errorf("report %d: %v", i, err)
			continue
		}
		rep, err := explain.Decode(doc)
		if err != nil {
			t.Errorf("report %d: %v", i, err)
			continue
		}
		if !rep.Reconciled() {
			t.Errorf("report %d (%s): not reconciled: unattributed=%d orphans=%d mismatches=%v",
				i, rep.Query, rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
		}
	}
	if t.Failed() {
		t.Logf("explain reports:\n%s", data)
	}
}
