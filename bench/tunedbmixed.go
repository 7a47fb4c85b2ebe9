package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"autotune/internal/chaos"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/store"
	"autotune/internal/tunedb"
)

// The shape of one tunedb-mixed op. A read-op is what a warm-started
// search asks of the database (front, nearest front, cache warm-up,
// seed population) plus point lookups; a write-op is what a finished
// search leaves behind (its evaluations, a third of them already
// stored, then a durable front).
const (
	dbOpsPerRound   = 80 // read-ops and write-ops alternate
	dbGetsPerRead   = 100
	dbMissesPerRead = 20
	dbNewPerWrite   = 200
	dbDupsPerWrite  = 100
	dbFrontPoints   = 12
	dbSeedK         = 15
	dbProgramSigs   = 4 // machine signatures per program fingerprint

	dbKeySequenceSeed = 20120611 // fixes the Zipf key sequence for every benchmark seed
)

// dbRec is one stored evaluation.
type dbRec struct {
	Cfg  skeleton.Config
	Objs []float64
}

// dbOp is one generated op; everything in it derives from the seed.
type dbOp struct {
	Write  bool
	Key    int // index of the key operated on (Zipf-chosen)
	Hits   []int
	Misses []skeleton.Config
	New    []dbRec
	Dups   []int
	Front  []tunedb.FrontPoint
}

var dbSpace = skeleton.Space{Params: []skeleton.Param{
	{Name: "t1", Min: 1, Max: 4096}, {Name: "t2", Min: 1, Max: 4096},
	{Name: "t3", Min: 1, Max: 1 << 20}, {Name: "threads", Min: 1, Max: 64},
}}

var dbObjectives = []string{"time", "resources"}

// dbSignatures are four machine geometries: the two paper machines and
// a variant of each, so the nearest-signature transfer path has real
// distances to rank.
func dbSignatures() []machine.Signature {
	w, b := machine.SignatureOf(machine.Westmere()), machine.SignatureOf(machine.Barcelona())
	w2, b2 := w, b
	w2.ClockGHz *= 1.25
	b2.Sockets /= 2
	return []machine.Signature{w, b, w2, b2}
}

// probeSignature is a fifth geometry no key is stored under: looking a
// front up for it exercises the fingerprint-prefix scan.
func probeSignature() machine.Signature {
	s := machine.SignatureOf(machine.Westmere())
	s.CoresPerSocket += 2
	s.MemBandwidthGBs *= 0.9
	return s
}

func dbKey(i int) (tunedb.Key, machine.Signature) {
	sigs := dbSignatures()
	sig := sigs[i%dbProgramSigs]
	return tunedb.Key{
		Fingerprint: fmt.Sprintf("prog%03d", i/dbProgramSigs),
		MachineSig:  sig.Key(),
		Objectives:  tunedb.ObjectiveKey(dbObjectives),
		SpaceHash:   tunedb.SpaceHash(dbSpace),
	}, sig
}

// baseRec is the i-th preloaded evaluation of key k: configurations
// are distinct per (k, i) and never collide with written ones, whose
// third coordinate starts at 1<<16.
func baseRec(rng *rand.Rand, k, i int) dbRec {
	return dbRec{
		Cfg:  skeleton.Config{int64(i%64+1) * 8, int64(i/64+1) * 8, int64(k + 1), int64(i%40 + 1)},
		Objs: []float64{rng.Float64() * 10, rng.Float64() * 400},
	}
}

// frontOf builds a mutually non-dominated front over the given records'
// configurations.
func frontOf(rng *rand.Rand, recs []dbRec) []tunedb.FrontPoint {
	pts := make([]tunedb.FrontPoint, 0, dbFrontPoints)
	for j := 0; j < dbFrontPoints && j < len(recs); j++ {
		pts = append(pts, tunedb.FrontPoint{
			Config:     recs[j].Cfg,
			Objectives: []float64{float64(j+1) + rng.Float64()*0.5, float64(dbFrontPoints-j) + rng.Float64()*0.5},
		})
	}
	return pts
}

// dbExpected is what the shadow model says a read-op must return.
type dbExpected struct {
	front      tunedb.FrontRecord
	nearest    tunedb.FrontRecord
	nearestDis float64
	primed     int
	seeds      []skeleton.Config
	gets       [][]float64 // nil entry = miss
	touched    int
}

// dbShadow is the in-memory reference model of the database: plain
// maps, no storage engine. Every read the benchmark makes is held
// against it.
type dbShadow struct {
	evals  []map[string][]float64 // per key: config key -> objectives
	fronts []tunedb.FrontRecord
}

func (s *dbShadow) putFront(k int, pts []tunedb.FrontPoint, evaluations int) tunedb.FrontRecord {
	key, sig := dbKey(k)
	rec := tunedb.FrontRecord{Key: key, Machine: sig, ObjectiveNames: dbObjectives,
		Points: append([]tunedb.FrontPoint(nil), pts...), Evaluations: evaluations, Iterations: 1}
	// The database stores points in canonical order: by objective
	// vector, then configuration key.
	sort.Slice(rec.Points, func(a, b int) bool {
		oa, ob := rec.Points[a].Objectives, rec.Points[b].Objectives
		for i := range oa {
			if oa[i] != ob[i] {
				return oa[i] < ob[i]
			}
		}
		return skeleton.Config(rec.Points[a].Config).Key() < skeleton.Config(rec.Points[b].Config).Key()
	})
	s.fronts[k] = rec
	return rec
}

// nearest mirrors the documented contract of DB.NearestFront for a key
// that is not stored: among the fronts of the same program, the one
// whose machine signature is closest, ties to the smaller key string.
func (s *dbShadow) nearest(k int, sig machine.Signature) (tunedb.FrontRecord, float64) {
	base := k - k%dbProgramSigs
	best, bestDist := tunedb.FrontRecord{}, math.Inf(1)
	for j := base; j < base+dbProgramSigs && j < len(s.fronts); j++ {
		rec := s.fronts[j]
		d := sig.Distance(rec.Machine)
		if d < bestDist || (d == bestDist && rec.Key.String() < best.Key.String()) {
			best, bestDist = rec, d
		}
	}
	return best, bestDist
}

func (s *dbShadow) seeds(k int) []skeleton.Config {
	seen := map[string]bool{}
	var out []skeleton.Config
	for _, p := range s.fronts[k].Points {
		if len(out) == dbSeedK {
			break
		}
		cfg := dbSpace.Clip(skeleton.Config(p.Config))
		if !seen[cfg.Key()] {
			seen[cfg.Key()] = true
			out = append(out, cfg)
		}
	}
	return out
}

// dbReadOut is what one read-op got back from the database.
type dbReadOut struct {
	front      tunedb.FrontRecord
	frontOK    bool
	nearest    tunedb.FrontRecord
	nearestDis float64
	nearestOK  bool
	primed     int
	seeds      []skeleton.Config
	gets       [][]float64
	getOK      []bool
}

type tunedbWorkload struct {
	e        *env
	ops      []dbOp
	base     [][]dbRec // per key, the preloaded evaluations
	pristine string
	expected []dbExpected // per op, from replaying the op list on the shadow
	userSize int64        // key + value bytes of the live records after a round

	fs        *countingFS // traced rounds only
	io        ioCounts    // accumulated over traced rounds
	getReads  int64       // file reads during GetEval batches
	getCalls  int64
	lastStats statsSummary
}

type statsSummary struct {
	segments        float64
	deadRatio       float64
	bloomFPR        float64
	diskPerUserByte float64
}

func newTunedbWorkload(e *env) *tunedbWorkload {
	w := &tunedbWorkload{e: e}
	rng := rand.New(rand.NewSource(e.seed))
	nk, per := e.sz.dbKeys, e.sz.dbEvalsPerKey
	w.base = make([][]dbRec, nk)
	for k := range w.base {
		w.base[k] = make([]dbRec, per)
		for i := range w.base[k] {
			w.base[k][i] = baseRec(rng, k, i)
		}
	}
	// The key sequence is the same for every seed: how many records a
	// read-op's WarmCache touches depends on the earlier writes to its
	// key, and the amount of work must not depend on the seed. Which
	// records are read, written and repeated does.
	zipf := rand.NewZipf(rand.New(rand.NewSource(dbKeySequenceSeed)), 1.2, 1, uint64(nk-1))
	n := dbOpsPerRound
	if e.sz.maxOps > 0 && e.sz.maxOps < n {
		n = e.sz.maxOps
	}
	for i := 0; i < n; i++ {
		op := dbOp{Write: i%2 == 1, Key: int(zipf.Uint64())}
		if op.Write {
			for j := 0; j < dbNewPerWrite; j++ {
				op.New = append(op.New, dbRec{
					Cfg:  skeleton.Config{int64(j%64+1) * 8, int64(j/64+1) * 8, int64(1<<16 + i), int64(j%40 + 1)},
					Objs: []float64{rng.Float64() * 10, rng.Float64() * 400},
				})
			}
			for j := 0; j < dbDupsPerWrite; j++ {
				op.Dups = append(op.Dups, rng.Intn(per))
			}
			op.Front = frontOf(rng, op.New)
		} else {
			for j := 0; j < dbGetsPerRead-dbMissesPerRead; j++ {
				op.Hits = append(op.Hits, rng.Intn(per))
			}
			for j := 0; j < dbMissesPerRead; j++ {
				// Third coordinate 0 is never stored.
				op.Misses = append(op.Misses, skeleton.Config{int64(rng.Intn(64)+1) * 8, 8, 0, 1})
			}
		}
		w.ops = append(w.ops, op)
	}
	return w
}

func (w *tunedbWorkload) opCount() int       { return len(w.ops) }
func (w *tunedbWorkload) opListHash() string { return hashOps(w.ops) }
func (w *tunedbWorkload) close()             {}

// setup preloads the pristine database through the program's own write
// path (PutEval, PutFront, Close) and replays the op list on the shadow
// model to fix what every read must return.
func (w *tunedbWorkload) setup(st *stepTimer) error {
	if w.pristine != "" {
		os.RemoveAll(w.pristine)
	}
	dir, err := os.MkdirTemp(w.e.root, "tunedb-pristine-")
	if err != nil {
		return err
	}
	w.pristine = dir
	db, err := tunedb.Open(dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.e.seed + 1))
	shadow := &dbShadow{evals: make([]map[string][]float64, len(w.base)), fronts: make([]tunedb.FrontRecord, len(w.base))}
	w.userSize = 0
	for k, recs := range w.base {
		key, _ := dbKey(k)
		shadow.evals[k] = make(map[string][]float64, len(recs))
		for _, r := range recs {
			if err := db.PutEval(key, r.Cfg, r.Objs); err != nil {
				db.Close()
				return err
			}
			shadow.evals[k][r.Cfg.Key()] = r.Objs
			w.userSize += recSize(key, r)
		}
		if err := db.PutFront(shadow.putFront(k, frontOf(rng, recs), len(recs))); err != nil {
			db.Close()
			return err
		}
		st.mark()
	}
	if err := db.Close(); err != nil {
		return err
	}
	st.mark()
	if err := w.verifyPristine(shadow); err != nil {
		return err
	}
	st.mark()

	w.expected = make([]dbExpected, len(w.ops))
	probe := probeSignature()
	for i, op := range w.ops {
		ex := &w.expected[i]
		key, _ := dbKey(op.Key)
		if op.Write {
			for _, r := range op.New {
				shadow.evals[op.Key][r.Cfg.Key()] = r.Objs
				w.userSize += recSize(key, r)
			}
			shadow.putFront(op.Key, op.Front, len(op.New))
			ex.touched = len(op.New) + len(op.Dups) + 1
			continue
		}
		ex.front = shadow.fronts[op.Key]
		ex.nearest, ex.nearestDis = shadow.nearest(op.Key, probe)
		ex.primed = len(shadow.evals[op.Key])
		ex.seeds = shadow.seeds(op.Key)
		for _, h := range op.Hits {
			ex.gets = append(ex.gets, w.base[op.Key][h].Objs)
		}
		for range op.Misses {
			ex.gets = append(ex.gets, nil)
		}
		ex.touched = ex.primed + len(ex.gets) + 3
	}
	st.mark()
	return nil
}

// verifyPristine reopens the preloaded database and reads every record
// back, so a round never starts from a state that lost or bent part of
// the preload.
func (w *tunedbWorkload) verifyPristine(shadow *dbShadow) error {
	db, err := tunedb.Open(w.pristine)
	if err != nil {
		return err
	}
	defer db.Close()
	for k := range w.base {
		key, _ := dbKey(k)
		n, bad := 0, ""
		err := db.ScanEvals(key.String(), func(_ string, cfg skeleton.Config, objs []float64) bool {
			n++
			if want, ok := shadow.evals[k][cfg.Key()]; !ok || !reflect.DeepEqual(objs, want) {
				bad = cfg.Key()
			}
			return bad == ""
		})
		if err != nil {
			return err
		}
		if bad != "" || n != len(shadow.evals[k]) {
			return fmt.Errorf("preloaded key %d reads back %d evaluations (want %d), first mismatch %q", k, n, len(shadow.evals[k]), bad)
		}
		if rec, ok := db.Front(key); !ok || !reflect.DeepEqual(rec, shadow.fronts[k]) {
			return fmt.Errorf("preloaded key %d lost its front", k)
		}
	}
	return nil
}

// recSize is the key and value bytes tunedb hands the store for one
// evaluation — the base of store.disk_bytes_per_user_byte.
func recSize(key tunedb.Key, r dbRec) int64 {
	val, _ := json.Marshal(struct {
		Config     []int64   `json:"config"`
		Objectives []float64 `json:"objectives"`
	}{r.Cfg, r.Objs})
	return int64(len("e|") + len(key.String()) + 1 + len(r.Cfg.Key()) + len(val))
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, info.Mode().Perm())
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// round copies the pristine directory (untimed), then times: open, the
// interleaved read- and write-ops, close. Close is inside the measured
// part because it flushes the memtables: write cost deferred to it
// must still count.
func (w *tunedbWorkload) round(tr *tracer) ([]time.Duration, []opOutcome, error) {
	work, err := os.MkdirTemp(w.e.root, "tunedb-round-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	if err := copyDir(w.pristine, work); err != nil {
		return nil, nil, err
	}
	var fsys chaos.FS
	var io0 ioCounts
	if tr != nil {
		if w.fs == nil {
			w.fs = newCountingFS()
		}
		fsys, io0 = w.fs, w.fs.counts()
	}
	out := make([]opOutcome, len(w.ops))
	probe := probeSignature()

	// Steps: open, one per op, close.
	st := newStepTimer()
	id := tr.begin("tunedb.open", -1, -1)
	db, err := tunedb.OpenFS(work, fsys)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	st.mark()
	for i, op := range w.ops {
		key, sig := dbKey(op.Key)
		t0 := time.Now()
		if op.Write {
			root := tr.begin("tunedb.write_op", -1, i)
			var werr error
			for _, r := range op.New {
				id := tr.begin("tunedb.puteval.new", root, i)
				err := db.PutEval(key, r.Cfg, r.Objs)
				tr.end(id)
				if err != nil && werr == nil {
					werr = err
				}
			}
			for _, d := range op.Dups {
				r := w.base[op.Key][d]
				id := tr.begin("tunedb.puteval.dup", root, i)
				err := db.PutEval(key, r.Cfg, r.Objs)
				tr.end(id)
				if err != nil && werr == nil {
					werr = err
				}
			}
			id := tr.begin("tunedb.putfront", root, i)
			err := db.PutFront(tunedb.FrontRecord{Key: key, Machine: sig, ObjectiveNames: dbObjectives,
				Points: append([]tunedb.FrontPoint(nil), op.Front...), Evaluations: len(op.New), Iterations: 1})
			tr.end(id)
			if err != nil && werr == nil {
				werr = err
			}
			tr.end(root)
			out[i] = opOutcome{latency: time.Since(t0), out: werr}
			st.mark()
			continue
		}
		root := tr.begin("tunedb.read_op", -1, i)
		ro := &dbReadOut{}
		id := tr.begin("tunedb.front", root, i)
		ro.front, ro.frontOK = db.Front(key)
		tr.end(id)
		probeKey := key
		probeKey.MachineSig = probe.Key()
		id = tr.begin("tunedb.nearest", root, i)
		ro.nearest, ro.nearestDis, ro.nearestOK = db.NearestFront(probeKey, probe)
		tr.end(id)
		ce := objective.NewCachingEvaluator(dbObjectives, 1, func(skeleton.Config) []float64 { return nil })
		id = tr.begin("tunedb.warmcache", root, i)
		ro.primed = db.WarmCache(key, ce)
		tr.end(id)
		id = tr.begin("tunedb.seed", root, i)
		ro.seeds = db.SeedPopulation(key, sig, dbSpace, dbSeedK)
		tr.end(id)
		var r0 int64
		if tr != nil {
			r0 = w.fs.reads.Load()
		}
		for _, h := range op.Hits {
			id := tr.begin("tunedb.geteval.hit", root, i)
			objs, ok := db.GetEval(key, w.base[op.Key][h].Cfg)
			tr.end(id)
			ro.gets, ro.getOK = append(ro.gets, objs), append(ro.getOK, ok)
		}
		for _, cfg := range op.Misses {
			id := tr.begin("tunedb.geteval.miss", root, i)
			objs, ok := db.GetEval(key, cfg)
			tr.end(id)
			ro.gets, ro.getOK = append(ro.gets, objs), append(ro.getOK, ok)
		}
		if tr != nil {
			w.getReads += w.fs.reads.Load() - r0
			w.getCalls += int64(len(op.Hits) + len(op.Misses))
		}
		tr.end(root)
		out[i] = opOutcome{latency: time.Since(t0), out: ro}
		st.mark()
	}
	if tr != nil {
		// Stats walks every record; it is the harness's question, not
		// the workload's, so it falls between two steps.
		if err := w.summarize(db); err != nil {
			db.Close()
			return nil, nil, err
		}
		st.last = time.Now()
	}
	id = tr.begin("tunedb.close", -1, -1)
	err = db.Close()
	tr.end(id)
	st.mark()
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		w.io = w.io.add(w.fs.counts().sub(io0))
	}
	return st.steps, out, nil
}

func (w *tunedbWorkload) summarize(db *tunedb.DB) error {
	st, err := db.Stats()
	if err != nil {
		return err
	}
	w.lastStats = summarizeStats(st, w.userSize)
	return nil
}

// summarizeStats reduces the store's physical state to the reported
// ratios; userBytes (0 = unknown) is the key and value bytes of the live
// records.
func summarizeStats(st store.Stats, userBytes int64) statsSummary {
	var filtered, falsePos uint64
	for _, sh := range st.Shards {
		filtered += sh.BloomFiltered
		falsePos += sh.BloomFalsePositives
	}
	return statsSummary{
		segments:        float64(st.Segments),
		deadRatio:       ratio(float64(st.DeadRecords), float64(st.SegmentRecords)+float64(st.MemtableEntries)),
		bloomFPR:        ratio(float64(falsePos), float64(filtered+falsePos)),
		diskPerUserByte: ratio(float64(st.DiskBytes), float64(userBytes)),
	}
}

// check holds every read against the shadow model's expectation.
func (w *tunedbWorkload) check(ops []opOutcome) {
	for i := range ops {
		ex := w.expected[i]
		raw := ops[i].out
		ops[i].out = nil
		if w.ops[i].Write {
			if err, _ := raw.(error); err != nil {
				ops[i].failure = err.Error()
				continue
			}
		} else if msg := checkDBRead(raw.(*dbReadOut), ex); msg != "" {
			ops[i].failure = msg
			continue
		}
		ops[i].evals, ops[i].quality = float64(ex.touched), 1
	}
}

// checkDBRead returns the first disagreement between a read-op's
// results and the shadow model, or "".
func checkDBRead(ro *dbReadOut, ex dbExpected) string {
	if !ro.frontOK || !reflect.DeepEqual(ro.front, ex.front) {
		return "Front disagrees with the shadow model"
	}
	if !ro.nearestOK || ro.nearestDis != ex.nearestDis || !reflect.DeepEqual(ro.nearest, ex.nearest) {
		return "NearestFront disagrees with the shadow model"
	}
	if ro.primed != ex.primed {
		return fmt.Sprintf("WarmCache primed %d records, the shadow model holds %d", ro.primed, ex.primed)
	}
	if !reflect.DeepEqual(ro.seeds, ex.seeds) {
		return "SeedPopulation disagrees with the shadow model"
	}
	if len(ro.gets) != len(ex.gets) {
		return "GetEval count mismatch"
	}
	for j, want := range ex.gets {
		if ro.getOK[j] != (want != nil) || !reflect.DeepEqual(ro.gets[j], want) {
			return fmt.Sprintf("GetEval %d = %v (stored=%v), the shadow model says %v", j, ro.gets[j], ro.getOK[j], want)
		}
	}
	return ""
}

func (w *tunedbWorkload) layers(lc *layerCtx) (map[string]float64, error) {
	ops, rounds := float64(lc.ops), float64(lc.rounds)
	us := func(name string) float64 {
		a := get(lc.aggs, name)
		return ratio(float64(a.totalNS)/1e3, float64(a.count))
	}
	ms := func(name string) float64 { return us(name) / 1e3 }
	warm := get(lc.aggs, "tunedb.warmcache")
	var primed float64
	for i, op := range w.ops {
		if !op.Write {
			primed += float64(w.expected[i].primed)
		}
	}
	return map[string]float64{
		"tunedb.puteval_us_new":          us("tunedb.puteval.new"),
		"tunedb.puteval_us_dup":          us("tunedb.puteval.dup"),
		"tunedb.geteval_us_hit":          us("tunedb.geteval.hit"),
		"tunedb.geteval_us_miss":         us("tunedb.geteval.miss"),
		"tunedb.warmcache_us_per_record": ratio(float64(warm.totalNS)/1e3, primed*rounds),
		"tunedb.front_get_us":            us("tunedb.front"),
		"tunedb.putfront_ms":             ms("tunedb.putfront"),
		"tunedb.read_op_ms_p50":          median(get(lc.aggs, "tunedb.read_op").durationMS),
		"tunedb.write_op_ms_p50":         median(get(lc.aggs, "tunedb.write_op").durationMS),
		"tunedb.open_ms":                 ms("tunedb.open"),
		"tunedb.close_ms":                ms("tunedb.close"),
		"store.fsyncs_per_op":            ratio(float64(w.io.fsyncs), ops),
		"store.write_kb_per_op":          ratio(float64(w.io.writeBytes)/1024, ops),
		"store.read_calls_per_get":       ratio(float64(w.getReads), float64(w.getCalls)),
		"store.read_kb_per_op":           ratio(float64(w.io.readBytes)/1024, ops),
		"store.renames_per_round":        ratio(float64(w.io.renames), rounds),
		"store.segments":                 w.lastStats.segments,
		"store.dead_ratio":               w.lastStats.deadRatio,
		"store.bloom_fpr":                w.lastStats.bloomFPR,
		"store.disk_bytes_per_user_byte": w.lastStats.diskPerUserByte,
	}, nil
}
