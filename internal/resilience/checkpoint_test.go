package resilience_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/resilience"
	"autotune/internal/skeleton"
)

func ckptSpace() skeleton.Space {
	return skeleton.Space{Params: []skeleton.Param{
		{Name: "t1", Kind: skeleton.TileSize, Min: 1, Max: 64},
		{Name: "t2", Kind: skeleton.TileSize, Min: 1, Max: 64},
		{Name: "threads", Kind: skeleton.ThreadCount, Min: 1, Max: 16},
	}}
}

func ckptFn(c skeleton.Config) []float64 {
	if len(c) != 3 {
		return nil
	}
	a, b, th := float64(c[0]), float64(c[1]), float64(c[2])
	return []float64{math.Abs(a-20) + math.Abs(b-30) + 100/th, a + b + 3*th}
}

func newCkptEval() *objective.CachingEvaluator {
	return objective.NewCachingEvaluator([]string{"f1", "f2"}, 8, ckptFn)
}

func ckptFingerprint(front []pareto.Point) string {
	var sb strings.Builder
	for _, p := range front {
		cfg, _ := p.Payload.(skeleton.Config)
		fmt.Fprintf(&sb, "%s=%v;", cfg.Key(), p.Objectives)
	}
	return sb.String()
}

// TestCheckpointRoundtrip saves snapshots through the journal and folds
// them back: the latest snapshot's state must win while the evaluation
// traces of every record accumulate for cache priming.
func TestCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(gen, e int, evals ...int64) *optimizer.Snapshot {
		s := &optimizer.Snapshot{
			Method: "rs-gde3", Fingerprint: "fp", Generation: gen, Evaluations: e,
			States: []optimizer.IslandState{{Stagnant: gen, Draws: uint64(10 * gen)}},
		}
		for _, v := range evals {
			s.Evals = append(s.Evals, optimizer.EvalState{Config: []int64{v}, Objs: []float64{float64(v)}})
		}
		return s
	}
	for gen, evals := range [][]int64{{1, 2}, {3}, {4, 5, 6}} {
		if err := cp.Save(mk(gen, 2*(gen+1), evals...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := resilience.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 2 || snap.Evaluations != 6 {
		t.Fatalf("folded to gen %d / E %d, want latest (2, 6)", snap.Generation, snap.Evaluations)
	}
	if snap.States[0].Draws != 20 {
		t.Fatalf("state draws = %d, want the latest snapshot's 20", snap.States[0].Draws)
	}
	if len(snap.Evals) != 6 {
		t.Fatalf("accumulated %d eval traces, want all 6 across records", len(snap.Evals))
	}
	for i, es := range snap.Evals {
		if es.Config[0] != int64(i+1) {
			t.Fatalf("eval trace %d = %v, want config %d (journal order)", i, es.Config, i+1)
		}
	}

	// A journal trimmed to a generation loads as the state at that
	// generation.
	if err := resilience.TrimCheckpoint(path, -1); err == nil {
		t.Fatal("negative generation accepted")
	}
	if err := resilience.TrimCheckpoint(path, 1); err != nil {
		t.Fatal(err)
	}
	at, err := resilience.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if at.Generation != 1 || len(at.Evals) != 3 {
		t.Fatalf("trimmed to generation 1, the journal loads as gen %d with %d traces, want gen 1 with 3", at.Generation, len(at.Evals))
	}
}

// TestCheckpointCrashSweep truncates a real search's journal at every
// byte offset — simulating a crash at any instant of the write — and
// requires each cut to either report a clean no-snapshot error or
// resume into a search whose final front and evaluation count are
// byte-identical to the uninterrupted run.
func TestCheckpointCrashSweep(t *testing.T) {
	dir := t.TempDir()
	space := ckptSpace()
	opt := optimizer.Options{PopSize: 10, MaxIterations: 5, Seed: 3}

	path := filepath.Join(dir, "full.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	search := optimizer.Spec{Strategy: "rs-gde3", Config: optimizer.StrategyConfig{Options: opt}}
	full, err := optimizer.Run(space, newCkptEval(), search, optimizer.Control{Checkpointer: cp})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	wantFront := ckptFingerprint(full.Front)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty journal")
	}

	// Sweep every truncation point, classifying each cut by the
	// generation it folds back to; one resumed search per distinct
	// recovery point proves the fold exact. Short mode strides the
	// sweep but still lands on every record boundary.
	stride := 1
	if testing.Short() {
		stride = 17
	}
	cuts := map[int]bool{0: true, len(data): true}
	for cut := 0; cut < len(data); cut += stride {
		cuts[cut] = true
	}
	for off, b := range data {
		if b == '\n' {
			cuts[off] = true
			cuts[off+1] = true
		}
	}
	resumedGens := map[int]bool{}
	for cut := 0; cut <= len(data); cut++ {
		if !cuts[cut] {
			continue
		}
		cutPath := filepath.Join(dir, "cut.ckpt")
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cp2, snap, err := resilience.ResumeCheckpoint(cutPath)
		if err != nil {
			if !strings.Contains(err.Error(), "no complete snapshot") {
				t.Fatalf("cut at %d: unexpected error %v", cut, err)
			}
			continue
		}
		if resumedGens[snap.Generation] {
			cp2.Close()
			continue
		}
		resumedGens[snap.Generation] = true
		res, err := optimizer.Run(space, newCkptEval(), search,
			optimizer.Control{Checkpointer: cp2, Resume: snap})
		cp2.Close()
		if err != nil {
			t.Fatalf("cut at %d (gen %d): resume failed: %v", cut, snap.Generation, err)
		}
		if got := ckptFingerprint(res.Front); got != wantFront {
			t.Fatalf("cut at %d (gen %d): resumed front diverged\n got: %s\nwant: %s",
				cut, snap.Generation, got, wantFront)
		}
		if res.Evaluations != full.Evaluations {
			t.Fatalf("cut at %d (gen %d): E = %d, want %d",
				cut, snap.Generation, res.Evaluations, full.Evaluations)
		}
	}
	// Every checkpointed generation (0 = initial population through the
	// final one) must have been recoverable from some cut.
	for gen := 0; gen <= opt.MaxIterations; gen++ {
		if !resumedGens[gen] {
			t.Fatalf("no truncation point recovered generation %d (got %v)", gen, resumedGens)
		}
	}
}

// TestCheckpointTornTailTruncated: resuming a journal with a torn final
// record rewrites the file down to its valid prefix so subsequent
// appends start clean.
func TestCheckpointTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := &optimizer.Snapshot{Method: "rs-gde3", Fingerprint: "fp", Generation: 0,
		States: []optimizer.IslandState{{}}}
	if err := cp.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, clean...), []byte(`{"v":1,"t":"snap","crc":12,"d":{"trunc`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	cp2, got, err := resilience.ResumeCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if got.Generation != 0 {
		t.Fatalf("resumed generation %d, want 0", got.Generation)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(clean) {
		t.Fatalf("journal is %d bytes after resume, want torn tail truncated to %d", len(onDisk), len(clean))
	}
}

// TestCheckpointLifecycleErrors covers the journal's edge and error
// paths: path accessors, double close, saving into a closed journal,
// and opening paths that do not exist.
func TestCheckpointLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "life.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Path() != path {
		t.Fatalf("Path() = %q", cp.Path())
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
	snap := &optimizer.Snapshot{Method: "rs-gde3", States: []optimizer.IslandState{{}}}
	if err := cp.Save(snap); err == nil {
		t.Fatal("save into a closed journal succeeded")
	}
	if _, err := resilience.CreateCheckpoint(filepath.Join(dir, "no/such/dir/x.ckpt")); err == nil {
		t.Fatal("checkpoint created under a missing directory")
	}
	if _, err := resilience.LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("load of a missing journal succeeded")
	}
	if _, _, err := resilience.ResumeCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("resume of a missing journal succeeded")
	}
}

// TestCheckpointInteriorCorruption: a corrupted record followed by
// valid ones cannot be explained by a crash mid-append and must be
// reported, not silently folded around.
func TestCheckpointInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 3; gen++ {
		s := &optimizer.Snapshot{Method: "rs-gde3", Fingerprint: "fp", Generation: gen,
			States: []optimizer.IslandState{{}}}
		if err := cp.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the first record's payload.
	i := strings.Index(string(data), `"generation":0`)
	if i < 0 {
		t.Fatal("payload marker not found")
	}
	data[i+len(`"generation":`)] = '9'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resilience.ResumeCheckpoint(path); err == nil {
		t.Fatal("interior corruption went undetected")
	}
	if _, err := resilience.LoadCheckpoint(path); err == nil {
		t.Fatal("interior corruption went undetected on read-only load")
	}
}

// TestTrimCheckpoint cuts a journal back to a generation and verifies
// both the trimmed load and the guard rails.
func TestTrimCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trim.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 4; gen++ {
		s := &optimizer.Snapshot{Method: "rs-gde3", Fingerprint: "fp", Generation: gen,
			States: []optimizer.IslandState{{}},
			Evals:  []optimizer.EvalState{{Config: []int64{int64(gen)}, Objs: []float64{1}}}}
		if err := cp.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := resilience.TrimCheckpoint(path, 1); err != nil {
		t.Fatal(err)
	}
	snap, err := resilience.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 1 || len(snap.Evals) != 2 {
		t.Fatalf("trimmed journal folds to gen %d with %d traces, want gen 1 with 2", snap.Generation, len(snap.Evals))
	}
	if err := resilience.TrimCheckpoint(path, -1); err == nil {
		t.Fatal("negative trim generation accepted")
	}
	if err := resilience.TrimCheckpoint(filepath.Join(dir, "missing.ckpt"), 1); err == nil {
		t.Fatal("trim of a missing journal succeeded")
	}
	// Trimming below the earliest snapshot leaves nothing to resume.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resilience.TrimCheckpoint(path, 2); err == nil {
		t.Fatal("trim of an empty journal succeeded")
	}
	if _, _, err := resilience.ResumeCheckpoint(path); err == nil {
		t.Fatal("resume of an empty journal succeeded")
	}
}

// BenchmarkCheckpointSave appends and syncs one generation's snapshot —
// a 30-member population, its archive and the generation's evaluation
// trace — per iteration: what a checkpointed search pays per generation.
func BenchmarkCheckpointSave(b *testing.B) {
	snap := &optimizer.Snapshot{Method: "rs-gde3", Fingerprint: "00c0ffee00c0ffee", Generation: 12, Evaluations: 390}
	state := optimizer.IslandState{Stagnant: 1, Draws: 4242}
	for i := 0; i < 30; i++ {
		m := optimizer.Member{
			Config: []int64{int64(8 * (i + 1)), int64(512 - 8*i), 64, int64(1 + i%12)},
			Objs:   []float64{0.0123456789 * float64(i+1), 0.5 + float64(i)},
		}
		state.Pop = append(state.Pop, m)
		if i%3 == 0 {
			state.Archive = append(state.Archive, m)
		}
		snap.Evals = append(snap.Evals, optimizer.EvalState(m))
	}
	snap.States = []optimizer.IslandState{state}
	cp, err := resilience.CreateCheckpoint(filepath.Join(b.TempDir(), "bench.ckpt"))
	if err != nil {
		b.Fatal(err)
	}
	defer cp.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Save(snap); err != nil {
			b.Fatal(err)
		}
	}
}
