package resilience_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/resilience"
	"autotune/internal/skeleton"
	"autotune/internal/store"
	"autotune/internal/testenv"
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

// ckptSearch is a small real RS-GDE3 search whose journal the sweeps
// damage: generations 0..iterations.
func ckptSearch(popSize, iterations int) optimizer.Spec {
	return optimizer.Spec{Strategy: "rs-gde3", Config: optimizer.StrategyConfig{
		Options: optimizer.Options{PopSize: popSize, MaxIterations: iterations, Seed: 3}}}
}

// realJournal runs search checkpointed and returns its result with the
// journal it wrote and the offset just past each of its frames.
func realJournal(t testing.TB, search optimizer.Spec) (full *optimizer.Result, data []byte, frameEnds []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "full.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err = optimizer.Run(ckptSpace(), newCkptEval(), search, optimizer.Control{Checkpointer: cp})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); {
		_, n, err := store.ParseFrame(data[off:])
		if err != nil {
			t.Fatalf("journal of a finished search does not parse at byte %d: %v", off, err)
		}
		off += n
		frameEnds = append(frameEnds, off)
	}
	if want := search.Config.Options.MaxIterations + 1; len(frameEnds) != want {
		t.Fatalf("journal holds %d frames, want one per generation: %d", len(frameEnds), want)
	}
	return full, data, frameEnds
}

// resumeTo finishes search from a resumed journal and returns the
// front's fingerprint and the cumulative evaluation count.
func resumeTo(t *testing.T, search optimizer.Spec, cp *resilience.Checkpoint, snap *optimizer.Snapshot) (string, int) {
	t.Helper()
	res, err := optimizer.Run(ckptSpace(), newCkptEval(), search, optimizer.Control{Checkpointer: cp, Resume: snap})
	cp.Close()
	if err != nil {
		t.Fatalf("resume from generation %d failed: %v", snap.Generation, err)
	}
	return ckptFingerprint(res.Front), res.Evaluations
}

// TestCheckpointCrashSweep truncates a real search's journal at every
// byte offset — simulating a crash at any instant of the write — and
// requires each cut to either report a clean no-snapshot error or
// resume into a search whose final front and evaluation count are
// byte-identical to the uninterrupted run.
func TestCheckpointCrashSweep(t *testing.T) {
	dir := t.TempDir()
	search := ckptSearch(10, 5)
	full, data, frameEnds := realJournal(t, search)
	wantFront := ckptFingerprint(full.Front)

	// Sweep every truncation point, classifying each cut by the
	// generation it folds back to; one resumed search per distinct
	// recovery point proves the fold exact. Short mode strides the
	// sweep but still lands on every frame boundary.
	stride := 1
	if testing.Short() {
		stride = 17
	}
	cuts := map[int]bool{0: true, len(data): true}
	for cut := 0; cut < len(data); cut += stride {
		cuts[cut] = true
	}
	for _, end := range frameEnds {
		cuts[end-1] = true
		cuts[end] = true
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
		got, evals := resumeTo(t, search, cp2, snap)
		if got != wantFront {
			t.Fatalf("cut at %d (gen %d): resumed front diverged\n got: %s\nwant: %s",
				cut, snap.Generation, got, wantFront)
		}
		if evals != full.Evaluations {
			t.Fatalf("cut at %d (gen %d): E = %d, want %d", cut, snap.Generation, evals, full.Evaluations)
		}
	}
	// Every checkpointed generation (0 = initial population through the
	// final one) must have been recoverable from some cut.
	for gen := range frameEnds {
		if !resumedGens[gen] {
			t.Fatalf("no truncation point recovered generation %d (got %v)", gen, resumedGens)
		}
	}
}

// TestCheckpointTornTailTruncated: resuming a journal with a torn final
// frame truncates the file to its valid prefix so subsequent appends
// start clean.
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
	torn := append(append([]byte{}, clean...), clean[:len(clean)-5]...)
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
// paths: double close, saving into a closed journal,
// and opening paths that do not exist.
func TestCheckpointLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "life.ckpt")
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
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

// TestCheckpointFlipSweep damages a real search's journal one byte at
// a time — every bit of the byte inverted, every byte in turn — and
// requires each damaged journal to resume from a snapshot the
// undamaged journal holds, which finishes at the uninterrupted front,
// or to be refused: never a snapshot the search did not write, and so
// never another front. Damage in a frame with a successor must be
// refused; only the last frame's may read as a torn tail.
func TestCheckpointFlipSweep(t *testing.T) {
	dir := t.TempDir()
	search := ckptSearch(6, 3)
	full, data, frameEnds := realJournal(t, search)
	wantFront := ckptFingerprint(full.Front)

	// The snapshot the undamaged journal folds to at each generation,
	// and proof that resuming from it reaches the uninterrupted front.
	path := filepath.Join(dir, "flip.ckpt")
	want := make([]*optimizer.Snapshot, len(frameEnds))
	for gen, end := range frameEnds {
		if err := os.WriteFile(path, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if want[gen], err = resilience.LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		cp, snap, err := resilience.ResumeCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Generation != gen {
			t.Fatalf("frame %d folds to generation %d", gen, snap.Generation)
		}
		if got, evals := resumeTo(t, search, cp, snap); got != wantFront || evals != full.Evaluations {
			t.Fatalf("generation %d resumes to E = %d and front %s, want %d and %s", gen, evals, got, full.Evaluations, wantFront)
		}
	}

	stride := 1
	if testing.Short() {
		stride = 7
	}
	lastFrame := frameEnds[len(frameEnds)-2]
	refused := 0
	for off := 0; off < len(data); off += stride {
		damaged := append([]byte{}, data...)
		damaged[off] ^= 0xff
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, snap, err := resilience.ResumeCheckpoint(path)
		if err != nil {
			refused++
			continue
		}
		cp.Close()
		if !reflect.DeepEqual(snap, want[snap.Generation]) {
			t.Fatalf("byte %d flipped: resumed from a generation-%d snapshot the search never wrote", off, snap.Generation)
		}
		// A damaged frame hides itself and what follows; resuming from
		// behind it can only be the answer for damage to the length
		// field — the frames behind are then out of reach — or to the
		// last frame, which a torn append explains.
		unread := frameEnds[snap.Generation]
		if off < unread || (off >= unread+4 && unread != lastFrame) {
			t.Fatalf("byte %d flipped: resumed from generation %d as if byte %d on were a torn tail", off, snap.Generation, unread)
		}
	}
	if refused == 0 {
		t.Fatal("no flipped byte was refused: interior damage goes undetected")
	}
}

// TestRetiredCheckpointFormatIsNamed: a checkpoint in the JSONL framing
// of builds up to commit ca39811 is refused as that, with what to do
// about it, not as an empty or torn journal.
func TestRetiredCheckpointFormatIsNamed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	old := `{"v":1,"t":"snap","crc":3465878915,"d":{"method":"rs-gde3","generation":0,"evaluations":30,"states":[{}]}}
{"v":1,"t":"snap","crc":1193046,"d":{"method":"rs-gde3","generation":1,"evaluations":60,"states":[{}]}}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, lerr := resilience.LoadCheckpoint(path)
	_, _, rerr := resilience.ResumeCheckpoint(path)
	for _, err := range []error{lerr, rerr, resilience.TrimCheckpoint(path, 0)} {
		if err == nil || !strings.Contains(err.Error(), "pre-frame JSONL checkpoint") || !strings.Contains(err.Error(), "without -resume") {
			t.Fatalf("JSONL checkpoint: %v, want it named with the way out", err)
		}
	}
	if kept, err := os.ReadFile(path); err != nil || string(kept) != old {
		t.Fatalf("the refused checkpoint was rewritten (%v)", err)
	}
}

// FuzzCheckpointFold feeds arbitrary bytes through the journal fold: it
// must never panic, load and resume must agree, a refused journal stays
// as it was, and an accepted one is cut to a prefix of itself that
// folds again to the same snapshot and the same length (recovery is
// idempotent).
func FuzzCheckpointFold(f *testing.F) {
	_, journal, frameEnds := realJournal(f, ckptSearch(6, 3))
	f.Add(journal)
	f.Add(journal[:frameEnds[1]])
	f.Add(journal[:frameEnds[2]-3])                                              // torn tail
	f.Add(append(append([]byte{}, journal[:frameEnds[0]]...), journal[5:90]...)) // garbage behind a frame
	flipped := append([]byte{}, journal...)
	flipped[frameEnds[0]+20] ^= 0xff // interior damage
	f.Add(flipped)
	f.Add([]byte(`{"v":1,"t":"snap","crc":12,"d":{}}` + "\n"))
	// FuzzWALReplay's corpus: frames that verify and are not snapshots.
	f.Add([]byte{})
	var valid []byte
	valid = store.AppendFrame(valid, []string{"key-a"}, [][]byte{[]byte("value-1")})
	valid = store.AppendFrame(valid, []string{"key-b"}, [][]byte{[]byte("value-2")})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), 0, 1, 2))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	batch := store.AppendFrame(nil, []string{"key-c", "key-a", ""}, [][]byte{[]byte("value-3"), nil, []byte("value-4")})
	f.Add(batch)
	f.Add(append(append([]byte{}, journal[:frameEnds[0]]...), batch...))
	f.Add(store.AppendFrame(nil, []string{"snap"}, [][]byte{[]byte(`{"generation":"x"}`)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, lerr := resilience.LoadCheckpoint(path)
		cp, snap, err := resilience.ResumeCheckpoint(path)
		if (lerr == nil) != (err == nil) {
			t.Fatalf("load says %v, resume says %v", lerr, err)
		}
		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(kept, data) {
				t.Fatalf("refused journal rewritten: %d bytes of %d left", len(kept), len(data))
			}
			return
		}
		cp.Close()
		if len(kept) > len(data) || !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("resume left %d bytes that are not a prefix of the %d given", len(kept), len(data))
		}
		if !reflect.DeepEqual(loaded, snap) {
			t.Fatal("load and resume fold the same bytes to different snapshots")
		}
		cp2, again, err := resilience.ResumeCheckpoint(path)
		if err != nil {
			t.Fatalf("the prefix resume kept does not resume: %v", err)
		}
		cp2.Close()
		if !reflect.DeepEqual(again, snap) {
			t.Fatal("folding the kept prefix gives another snapshot")
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(kept)) {
			t.Fatalf("second resume moved the journal's length from %d (%v)", len(kept), err)
		}
	})
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

// benchSnapshot is one generation's snapshot: a 30-member population,
// its archive and the generation's evaluation trace.
func benchSnapshot() *optimizer.Snapshot {
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
	return snap
}

// BenchmarkCheckpointSave appends and syncs benchSnapshot per
// iteration: what a checkpointed search pays per generation.
func BenchmarkCheckpointSave(b *testing.B) {
	snap := benchSnapshot()
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

// TestCheckpointSaveAllocationBudget: once the journal's buffers have
// grown to a generation's size, saving one allocates nothing — not the
// encoded snapshot, not its frame.
func TestCheckpointSaveAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	snap := benchSnapshot()
	cp, err := resilience.CreateCheckpoint(filepath.Join(t.TempDir(), "budget.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	save := func() {
		if err := cp.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	save()
	if got := testing.AllocsPerRun(20, save); got != 0 {
		t.Fatalf("a steady-state Save allocates %v times, want 0", got)
	}
}
