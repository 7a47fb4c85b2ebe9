// Command bench is the repository's one benchmark: five workloads over
// the search library, the tuning database and the tuning service, each
// reporting the same end-to-end metrics, plus a traced run that breaks
// a workload down by layer. See README.md in this directory.
//
//	go run ./bench -workload search-cold [-seed 1] [-rounds 16] [-dir D] [-trace]
//	go run ./bench -all [-aa]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	defaultRounds = 16
	// minRounds is the fewest timed rounds a run may take: a lower
	// quartile of fewer is one of the two quietest rounds, not a
	// statistic.
	minRounds = 9
	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats = 3
	// tracedRounds is how many rounds a traced run takes with tracing on
	// (and as many with it off).
	tracedRounds = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets the boolean -trace also take its value as a
// separate argument ("--trace 1"), the form the benchmark driver uses.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a == "trace" && strings.HasPrefix(args[i], "-") &&
			i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	all := fs.Bool("all", false, "run every workload")
	seed := fs.Int64("seed", 1, "derives every search seed, key choice and op order")
	rounds := fs.Int("rounds", 0, fmt.Sprintf("timed rounds per workload (default %d, at least %d)", defaultRounds, minRounds))
	seconds := fs.Int("seconds", 0, "measure for about this long: one timed round per second, since a round is sized to about one second")
	dir := fs.String("dir", "", "directory for on-disk state (default /dev/shm when it has room, else .bench_build/state)")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
	aa := fs.Bool("aa", false, "run the selected workloads twice and fail if the two sets disagree beyond the metrics' own bounds")
	jsonOut := fs.String("json", "", "also write the full reports to this file")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var names []string
	switch {
	case *all:
		names = workloadOrder
	case *workload != "":
		names = []string{*workload}
	default:
		fmt.Fprintln(stderr, "bench: give -workload <name> or -all")
		fs.Usage()
		return 2
	}
	n := *rounds
	if n == 0 {
		n = defaultRounds
		if *seconds > 0 {
			n = *seconds
		}
	}
	if n < minRounds {
		n = minRounds
	}

	// One processor: on two shared vCPUs a second one makes the run 5%
	// slower and twice as noisy, because the model costs 0.2 us per
	// evaluation and the rest is scheduling. Gains from parallelism and
	// lock contention are therefore not visible here.
	runtime.GOMAXPROCS(1)

	e, err := newEnv(*seed, *dir, benchSizes)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer e.close()
	ro := runOptions{rounds: n, setups: setupRepeats, outDir: filepath.Join("bench", "out")}
	if *trace {
		ro.setups, ro.traced = 1, tracedRounds
	}

	fmt.Fprintf(stdout, "# go=%s nproc=%d gomaxprocs=%d state_fs=%s seed=%d rounds=%d clients=%d workers=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), e.fsKind, *seed, n, serviceClients, serviceWorkers)
	sets := 1
	if *aa {
		sets = 2
	}
	reports := make([][]*report, sets)
	failed := false
	for s := 0; s < sets; s++ {
		for _, name := range names {
			rep, err := runWorkload(name, e, ro)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printReport(stdout, rep)
			reports[s] = append(reports[s], rep)
			if rep.Failed > 0 {
				failed = true
				for _, f := range rep.Failures {
					fmt.Fprintf(stderr, "bench: %s: %s\n", name, f)
				}
			}
		}
	}
	if *aa && !compareSets(stdout, reports[0], reports[1]) {
		failed = true
	}
	if *jsonOut != "" {
		data, _ := json.MarshalIndent(runFile{
			Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Clients: serviceClients, Workers: serviceWorkers, Seed: *seed, Rounds: n, Traced: *trace,
			StateFS: e.fsKind, Sets: reports,
		}, "", "  ")
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	// The last line is the driver's result object, for the (last)
	// workload run.
	fmt.Fprintln(stdout, resultLine(reports[sets-1][len(names)-1], *trace))
	return 0
}

// runFile is what -json writes: the conditions of the run and every
// workload's full report, one list per set (two with -aa).
type runFile struct {
	Go         string      `json:"go_version"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Clients    int         `json:"service_clients"`
	Workers    int         `json:"service_workers"`
	Seed       int64       `json:"seed"`
	Rounds     int         `json:"rounds"`
	Traced     bool        `json:"traced"`
	StateFS    string      `json:"state_fs"`
	Sets       [][]*report `json:"sets"`
}

// printReport writes every metric as "workload metric value unit".
func printReport(w io.Writer, r *report) {
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, v, unit)
	}
	fmt.Fprintf(w, "# %s: ops/round=%d rounds=%d op_list=%s state_fs=%s\n", r.Workload, r.Ops, r.Rounds, r.OpListHash, r.StateFS)
	fmt.Fprintf(w, "# %s: round_wall_s=%s q1=%.4f median=%.4f quiet=%.4f setup_s=%s\n", r.Workload,
		fmtList(r.RoundWallS), q1(r.RoundWallS), r.MedianWall, r.QuietWallS, fmtList(r.SetupS))
	for _, d := range endToEnd {
		line(d.name, r.EndToEnd[d.name].Value, d.unit)
	}
	line("fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	if r.PerLayer != nil {
		for _, d := range perLayer {
			line(d.name, r.PerLayer[d.name].Value, d.unit)
		}
		fmt.Fprintf(w, "# %s: spans written to %s\n", r.Workload, r.TraceFile)
		return
	}
	// An untraced run still has the process, tail and noise readings.
	for _, d := range perLayer {
		if v, ok := r.layerVals[d.name]; ok {
			line(d.name, v, d.unit)
		}
	}
}

func fmtList(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// resultLine renders the driver's result object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func resultLine(r *report, traced bool) string {
	metrics := r.EndToEnd
	if traced {
		metrics = r.PerLayer
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(out)
}

// compareSets is the A/A check: the same code run twice must agree on
// every end-to-end metric within that metric's own bound, or the bound
// gates noise. It prints each relative difference and both sets' round
// spread, so a disturbed host is diagnosable from the output alone.
func compareSets(w io.Writer, a, b []*report) bool {
	ok := true
	for i := range a {
		fmt.Fprintf(w, "# aa %s noise.round_spread %.4f / %.4f\n", a[i].Workload,
			a[i].layerVals["noise.round_spread"], b[i].layerVals["noise.round_spread"])
		for _, d := range endToEnd {
			va, vb := a[i].EndToEnd[d.name].Value, b[i].EndToEnd[d.name].Value
			diff := math.Abs(va-vb) / math.Max(math.Abs(va), math.SmallestNonzeroFloat64)
			verdict := "ok"
			if diff > d.bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(w, "aa %s %s %.6g %.6g diff=%.4f bound=%.2f %s\n", a[i].Workload, d.name, va, vb, diff, d.bound, verdict)
		}
	}
	return ok
}
