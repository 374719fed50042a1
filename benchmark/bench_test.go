package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ermia/internal/wal"
)

// TestSmoke runs every workload untraced and traced at smoke size, with all
// correctness checks, and looks for every metric in the output. The full run
// is never started from go test.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var buf bytes.Buffer
	if code := run(options{smoke: true, seed: 1, repeat: 1, out: out}, &buf); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, buf.String())
	}
	text := buf.String()
	for _, wl := range workloads {
		if n := strings.Count(text, "== "+wl.name+" "); n != 2 {
			t.Errorf("%s: %d result blocks, want an untraced and a traced one", wl.name, n)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+wl.name+".json")); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if n := strings.Count(text, "  "+m.name+" "); n != len(workloads) {
			t.Errorf("metric %s printed %d times, want once per workload", m.name, n)
		}
	}
	if !strings.Contains(text, "env: num_cpu=") {
		t.Error("no environment record")
	}
	if left, _ := filepath.Glob(filepath.Join(out, "run-*")); len(left) > 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// TestDriverLine checks the one-workload form: the last line is one JSON
// object with exactly the contract's keys and, per mode, exactly the metrics
// of the matching table.
func TestDriverLine(t *testing.T) {
	for trace, table := range [][]metricDef{endToEnd, perLayer} {
		var buf bytes.Buffer
		o := options{workload: "kv_sharded", smoke: true, seed: 5, trace: trace, out: t.TempDir()}
		if code := run(o, &buf); code != 0 {
			t.Fatalf("trace %d: exit %d:\n%s", trace, code, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("trace %d: keys are not correct, attempted, failed, metrics: %s", trace, lines[len(lines)-1])
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(table) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(metrics), len(table))
		}
		for _, m := range table {
			if v, ok := metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("trace %d: metric %s missing or in unit %q, want %q", trace, m.name, v.Unit, m.unit)
			}
		}
		if trace == 0 {
			for name, v := range metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, v.Value)
				}
			}
		}
	}
}

// TestSeededViolationFails corrupts one expected value per workload; every
// run must then report incorrect and exit non-zero.
func TestSeededViolationFails(t *testing.T) {
	for _, wl := range workloads {
		var buf bytes.Buffer
		o := options{workload: wl.name, smoke: true, seed: 2, corrupt: true, out: t.TempDir()}
		if code := run(o, &buf); code == 0 {
			t.Errorf("%s: a corrupted expected value was not noticed:\n%s", wl.name, buf.String())
		} else if !strings.Contains(buf.String(), `"correct":false`) {
			t.Errorf("%s: exit %d without \"correct\":false", wl.name, code)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in the code equal.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, %q; the code %q, %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", wl.name, len(wl.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, m := range want {
			if (got[i] != metric{m.name, m.unit, m.better, m.bound}) {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the code %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// shortLoad sets wl up small with the decorators on and drives it briefly,
// returning the instance still open and the counters at both edges.
func shortLoad(t *testing.T, wl *workload, clients int) (inst *instance, before, after counters, res *loadResult) {
	t.Helper()
	cfg := runConfig{seed: 3, clients: clients, dir: t.TempDir(), small: true, traced: true}
	inst, err := wl.setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res = runLoad(inst.callers, cfg.seed, 100*time.Millisecond, 400*time.Millisecond, inst.isRollback,
		func() { before = inst.readCounters(); inst.setTracing(true) },
		func() { inst.setTracing(false); after = inst.readCounters() })
	if res.failed > 0 || res.committed(nil) == 0 {
		inst.close()
		t.Fatalf("%d commits, %d failed: %v", res.committed(nil), res.failed, res.firstErr)
	}
	return inst, before, after, res
}

// With the embedding *core.DB wrapper between server and engine the server
// must still find WaitDurable and DurableOffset, i.e. still run group commit.
func TestCoreTapKeepsGroupDurability(t *testing.T) {
	inst, _, _, res := shortLoad(t, &kvWireWrite, 2)
	st := inst.servers[0].Stats()
	inst.close() // engine-side spans are read once the sessions have ended
	if st.GroupBatches == 0 || st.GroupCommits < res.committed(nil) {
		t.Errorf("group committer saw %d commits in %d batches; callers saw %d commits", st.GroupCommits, st.GroupBatches, res.committed(nil))
	}
	if st.DurableOffset == 0 {
		t.Error("server reports durable offset 0: DurableOffset is not promoted through the wrapper")
	}
	if eng := inst.engineTrace.totals(); eng.agg[opCommit].n == 0 {
		t.Error("no engine-side commit spans: the server is not calling the wrapper's Begin")
	}
}

// The storage wrapper must see every byte the log manager says it flushed.
func TestStorageTapMatchesLogManager(t *testing.T) {
	inst, _, _, _ := shortLoad(t, &kvWireWrite, 1)
	db := inst.cores[0]
	inst.close() // drains the log
	// A fresh log starts at offset Grain, so that offset 0 stays invalid.
	flushed := db.Log().Stats().Flushed - wal.Grain
	if got := inst.storage[0].counts().writeBytes; got != flushed || got == 0 {
		t.Errorf("storage wrapper counted %d bytes written, the log manager flushed %d", got, flushed)
	}
}

// Read-only transactions must not reach the log at all.
func TestReadWorkloadWritesNothing(t *testing.T) {
	inst, before, after, _ := shortLoad(t, &kvWireRead, 2)
	defer inst.close()
	if d := after.storage.sub(before.storage); d.writeBytes != 0 || d.writes != 0 {
		t.Errorf("kv_wire_read wrote %d bytes in %d writes during the measured time", d.writeBytes, d.writes)
	}
	if d := after.groupBatches - before.groupBatches; d != 0 {
		t.Errorf("kv_wire_read woke the group committer %d times", d)
	}
}
