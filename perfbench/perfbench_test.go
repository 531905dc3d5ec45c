package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestMain(m *testing.M) {
	// The traced run re-executes the running binary as its server.
	if len(os.Args) > 1 && os.Args[1] == "serve-traced" {
		if err := serveTraced(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serve-traced:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if len(os.Args) > 1 && os.Args[1] == "serve-ref" {
		if err := serveRef(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serve-ref:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if err := becomeSubreaper(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func opSequence(t *testing.T, w workloadSpec, seed uint64) []byte {
	t.Helper()
	gen := newGenerator(w, seed)
	var ops []any
	for i := 0; i < 64; i++ {
		if w.sweep {
			ops = append(ops, gen.sweep(i), gen.traceID(i))
		} else {
			ops = append(ops, gen.lifecycle(i), gen.traceID(i))
		}
	}
	raw, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSeedDeterminesOperations(t *testing.T) {
	for _, w := range workloads {
		a, b := opSequence(t, w, 7), opSequence(t, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different operation sequences", w.name)
		}
		if reflect.DeepEqual(a, opSequence(t, w, 8)) {
			t.Errorf("%s: different seeds gave the same operation sequence", w.name)
		}
	}
}

func TestGeneratedInputsAreValid(t *testing.T) {
	ttl := 1.0
	for _, w := range workloads {
		gen := newGenerator(w, 11)
		for i, m := range gen.models {
			cfg := serve.SessionConfig{VMType: "n1-highcpu-16", Zone: "us-east1-b", VMs: 1, GangSize: 1,
				Policy: serve.PolicyReuse, HotSpareTTL: &ttl, CheckpointDelta: checkpointDelta, Model: &m}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s model %d: %v", w.name, i, err)
			}
		}
	}
}

// buildBatchsvc builds the service binary once per test binary run.
func buildBatchsvc(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "batchsvc")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/batchsvc").CombinedOutput()
	if err != nil {
		t.Fatalf("building batchsvc: %v\n%s", err, out)
	}
	return bin
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildBatchsvc(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := endToEnd(context.Background(), options{w: w, seed: 3, seconds: time.Second, root: t.TempDir(), batchsvc: bin})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["success_ratio"].Value != 1 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.notes)
			}
			for _, name := range []string{"setup_s", "ops_per_s", "p50_ms", "p99_ms", "cpu_ms_per_op", "live_heap_mb"} {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

func TestTracedSmokeLocalHasNoRemoteTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildBatchsvc(t)
	w, _ := lookupWorkload("lifecycle-local")
	keep := t.TempDir()
	res, err := tracedRun(context.Background(), options{w: w, seed: 5, seconds: 2 * time.Second, root: t.TempDir(), keep: keep, batchsvc: bin})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.notes)
	}
	for _, name := range []string{"remote.round_trips_per_op", "remote.ms_per_op", "remote.bytes_per_op", "remote.errors_per_op"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v on lifecycle-local, want 0", name, v)
		}
	}
	for _, name := range []string{"api.create.self_ms", "backend.run_ms", "batch.sim_ms", "store.fsyncs_per_op", "go.alloc_kb_per_op"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if v := res.Metrics["policy.solves_per_op"].Value; v > 0.05 {
		t.Errorf("policy.solves_per_op = %v after warm-up, want about 0", v)
	}
	if _, err := os.Stat(filepath.Join(keep, "spans-lifecycle-local.jsonl")); err != nil {
		t.Errorf("spans not written out: %v", err)
	}
}

func TestReferenceSpeed(t *testing.T) {
	ref := &refServer{cpuS: 0.1}
	for i := 0; i < 100; i++ {
		ref.lat = append(ref.lat, 2*refNominalP50MS)
	}
	ref.lat[99] = 2 * refNominalP99MS
	avg, p50, _, _ := ref.speed()
	if p50 != 0.5 || !(avg < 0.5) {
		t.Errorf("speed by mean %v, by p50 %v; want below 0.5 and 0.5", avg, p50)
	}
}

func TestReferenceAnswers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(handleRef))
	defer srv.Close()
	ref := &refServer{c: newClient(srv.URL)}
	defer ref.c.close()
	if _, err := ref.op(3); err != nil {
		t.Fatal(err)
	}
}
