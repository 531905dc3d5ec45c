package repro

// Micro-benchmarks for the numeric kernel's hot paths, the baseline every
// later performance PR is judged against. scripts/bench.sh runs them and
// records the results in BENCH_PR1.json.
//
// The headline comparison is BenchmarkSampleBisection (the retained
// 60-iteration inverse-CDF reference) against BenchmarkSampleQuantileTable
// (the precomputed-table fast path used by Model.Sample and the Monte
// Carlo estimators); the acceptance bar is a >= 5x gap. BenchmarkMCMakespan
// runs the same estimate at parallelism 1 and at GOMAXPROCS — the results
// are byte-identical, only the wall clock differs.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mathx"
	"repro/internal/policy"
	"repro/internal/registry"
)

// benchModel is the paper-typical fitted model used by all micro-benches.
func benchModel() *core.Model {
	return core.New(dist.NewBathtub(0.45, 1.0, 0.8, 24, 24))
}

func BenchmarkSampleBisection(b *testing.B) {
	m := benchModel()
	rng := mathx.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SampleBisect(rng)
	}
}

func BenchmarkSampleQuantileTable(b *testing.B) {
	m := benchModel()
	rng := mathx.NewRNG(1)
	m.Sample(rng) // build the table outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Sample(rng)
	}
}

func BenchmarkSampleConditionalQuantileTable(b *testing.B) {
	m := benchModel()
	rng := mathx.NewRNG(1)
	m.Sample(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SampleConditional(10, rng)
	}
}

// benchDPSolve measures a cold checkpoint-DP solve of a 4-hour job at the
// experiments' default 2-minute resolution (the row-parallel O(n^2 * ages)
// sweep dominates) with the given worker count. Every planner runs the one
// exact scan (saturation cap plus coarse-to-fine block skips), so the
// variants produce bit-identical tables (see the equality gates in
// internal/policy); only the wall clock differs.
func benchDPSolve(b *testing.B, parallelism int) {
	m := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := policy.NewCheckpointPlanner(m, 1.0/60, 2.0/60)
		p.SetParallelism(parallelism)
		_ = p.ExpectedMakespan(4, 0)
	}
}

// BenchmarkDPSolve is the serial cold solve, kept under its original name
// so bench.sh -compare tracks it across baselines.
func BenchmarkDPSolve(b *testing.B) { benchDPSolve(b, 1) }

// BenchmarkDPSolveP1 is the parallel solver pinned to one worker. At
// parallelism 1, solveRows deliberately collapses to the plain serial loop
// (no pool, no barriers), so this is the serial solver by construction and
// must match BenchmarkDPSolve exactly; it exists under its own name so the
// P1-vs-PMax pair reads directly off one bench run.
func BenchmarkDPSolveP1(b *testing.B) { benchDPSolve(b, 1) }

// BenchmarkDPSolvePMax shards the per-row age loop across GOMAXPROCS
// workers.
func BenchmarkDPSolvePMax(b *testing.B) { benchDPSolve(b, runtime.GOMAXPROCS(0)) }

// BenchmarkDPSolveLong measures a cold serial solve of a 20-hour job at
// 5-minute resolution — a long-job shape where the work axis (n=240)
// dominates the age axis (289 cells) and the saturation cap binds from
// restart age ~4h up.
func BenchmarkDPSolveLong(b *testing.B) {
	m := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := policy.NewCheckpointPlanner(m, 2.0/60, 5.0/60)
		p.SetParallelism(1)
		_ = p.ExpectedMakespan(20, 0)
	}
}

// BenchmarkDPSolveIncremental measures growing a warm half-size table to
// the full job length — the cost a session pays when a longer job arrives —
// versus BenchmarkDPSolve's from-scratch build of the same final table.
func BenchmarkDPSolveIncremental(b *testing.B) {
	m := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := policy.NewCheckpointPlanner(m, 1.0/60, 2.0/60)
		p.SetParallelism(1)
		_ = p.ExpectedMakespan(2, 0) // warm: rows for the 2-hour prefix
		b.StartTimer()
		_ = p.ExpectedMakespan(4, 0) // timed: grow 2h -> 4h in place
	}
}

func benchMCMakespan(b *testing.B, parallelism int) {
	m := benchModel()
	cfg := policy.MCConfig{Runs: 4000, Seed: 7, Parallelism: parallelism}
	m.Sample(mathx.NewRNG(1)) // build the quantile table up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = policy.MCMakespanNoCheckpoint(m, 4, 0, cfg)
	}
}

func BenchmarkMCMakespanP1(b *testing.B) { benchMCMakespan(b, 1) }

func BenchmarkMCMakespanPMax(b *testing.B) { benchMCMakespan(b, runtime.GOMAXPROCS(0)) }

// benchRegistry returns a registry with one entry whose model matches
// benchModel, plus a pool of lifetimes drawn from that model (so steady
// ingest exercises the KS-window hot path without ever flagging).
func benchRegistry(b *testing.B) (*registry.Registry, []float64) {
	b.Helper()
	params := registry.Params{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24}
	reg := registry.New()
	_, err := reg.Create("bench", registry.Scenario{VMType: "n1-highcpu-16", Zone: "us-east1-b"},
		registry.EntryConfig{},
		registry.Provenance{Family: "manual", Params: params, Source: "register"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	m, err := params.Model()
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(1)
	pool := make([]float64, 4096)
	for i := range pool {
		pool[i] = m.Sample(rng)
	}
	return reg, pool
}

// BenchmarkRegistryIngest measures observation throughput into a hot
// change-point detector — the online registry's ingest path under a steady
// stream of model-consistent lifetimes (each op is one 128-observation
// batch; the obs/sec metric is the headline number).
func BenchmarkRegistryIngest(b *testing.B) {
	reg, pool := benchRegistry(b)
	const batch = 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (len(pool) - batch)
		if _, err := reg.Ingest("bench", pool[lo:lo+batch], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "obs/sec")
}

// BenchmarkModelResolve measures reference resolution — the registry work
// on every model_ref session create (and sweep cell), pinning "@latest"
// against an entry with a version history.
func BenchmarkModelResolve(b *testing.B) {
	reg, _ := benchRegistry(b)
	for i := 0; i < 3; i++ {
		prov := registry.Provenance{
			Family: "manual",
			Params: registry.Params{A: 0.45, Tau1: 1.0 + float64(i)*0.1, Tau2: 0.8, B: 24, L: 24},
			Source: "register",
		}
		if _, err := reg.Publish("bench", prov, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Resolve("bench@latest"); err != nil {
			b.Fatal(err)
		}
	}
}

// calibrationSink keeps BenchmarkCalibration's kernel observable so the
// compiler cannot eliminate it.
var calibrationSink uint64

// BenchmarkCalibration is a fixed, dependency-free integer-mixing kernel
// whose ns/op tracks only the machine's single-thread speed — never this
// repo's code. scripts/bench.sh records it alongside every baseline so
// that -compare can normalize ns/op ratios taken on different (or noisy)
// hardware: a benchmark is only flagged as a regression when it slowed
// down relative to the calibration kernel, not merely because the CPU did.
func BenchmarkCalibration(b *testing.B) {
	x := uint64(0x9e3779b97f4a7c15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			x ^= x >> 33
			x *= 0xff51afd7ed558ccd
			x ^= x >> 29
		}
	}
	calibrationSink = x
}
