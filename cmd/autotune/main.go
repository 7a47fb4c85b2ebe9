// Command autotune tunes one of the built-in kernels for multiple
// objectives and prints (or saves) the resulting multi-versioned unit.
//
// Usage:
//
//	autotune -kernel mm -machine Westmere [-method rs-gde3|gde3|nsga2|motpe|random|grid|brute-force|race]
//	         [-islands W] [-migrate M] [-seed N] [-n N] [-energy] [-measured]
//	         [-surrogate] [-screen-topk K]
//	         [-race-interval N] [-race-budget E] [-race-strategies a,b,c]
//	         [-deadline D] [-eval-timeout D]
//	         [-checkpoint FILE] [-resume FILE]
//	         [-db DIR] [-warm=false] [-o unit.json] [-code]
//
// The search is interruptible: SIGINT/SIGTERM (or an elapsed
// -deadline) stops it gracefully at the next generation boundary and
// prints the best-so-far partial front. With -checkpoint, an
// interrupted run resumes exactly via -resume, finishing with the same
// front as an uninterrupted run.
//
// Example:
//
//	autotune -kernel mm -machine Barcelona -seed 1
//	autotune -kernel jacobi-2d -energy -o jacobi.json
//	autotune -kernel mm -checkpoint mm.ckpt   # interrupt with ^C ...
//	autotune -kernel mm -resume mm.ckpt       # ... and finish later
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"autotune"
	"autotune/internal/driver"
	"autotune/internal/export"
	"autotune/internal/machine"
)

func main() {
	kernel := flag.String("kernel", "mm", "kernel to tune ("+strings.Join(autotune.Kernels(), ", ")+")")
	machineName := flag.String("machine", "Westmere", "target machine (Westmere, Barcelona)")
	method := flag.String("method", string(autotune.RSGDE3), "search method ("+strings.Join(autotune.Methods(), ", ")+")")
	islands := flag.Int("islands", 1, "parallel search islands (1 = serial)")
	migrate := flag.Int("migrate", 0, "generations between island migrations (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	n := flag.Int64("n", 0, "problem size (0 = kernel default)")
	energy := flag.Bool("energy", false, "add the energy objective (3-objective tuning)")
	measured := flag.Bool("measured", false, "tune by timing the real Go kernels instead of the model")
	out := flag.String("o", "", "write the multi-versioned unit JSON to this file")
	showCode := flag.Bool("code", false, "print the generated code listing of each version")
	machineFile := flag.String("machine-file", "", "load a custom machine description from this JSON file")
	unroll := flag.Bool("unroll", false, "add the innermost-loop unroll factor as a tuning dimension")
	emitC := flag.String("emit-c", "", "write the multi-versioned C translation unit to this file")
	programFile := flag.String("program", "", "tune a MiniIR text program from this file instead of a built-in kernel")
	faultDemo := flag.Int("fault-demo", 0, "after tuning, drive N runtime invocations with faults injected into the fastest version")
	faultRate := flag.Float64("fault-rate", 0.3, "per-invocation error rate for -fault-demo")
	dbDir := flag.String("db", "", "persistent tuning database directory (results are journaled; inspect with cmd/tunedb)")
	warm := flag.Bool("warm", true, "with -db: warm-start from stored results (cache priming + population seeding)")
	deadline := flag.Duration("deadline", 0, "stop the search gracefully after this long, keeping the best-so-far front (0 = unbounded)")
	evalTimeout := flag.Duration("eval-timeout", 0, "abandon any single evaluation exceeding this and record it as failed (0 = no watchdog)")
	checkpoint := flag.String("checkpoint", "", "journal a crash-safe search snapshot to this file after every generation")
	resume := flag.String("resume", "", "resume an interrupted search from this checkpoint file (options must match the interrupted run)")
	raceInterval := flag.Int("race-interval", 0, "with -method race: generations between scoring/elimination rounds (0 = default 5)")
	raceBudget := flag.Int("race-budget", 0, "with -method race: cap on total distinct evaluations (0 = race until every survivor stops)")
	raceStrategies := flag.String("race-strategies", "", "with -method race: comma-separated contender strategies (empty = all that race: "+strings.Join(autotune.Strategies(), ", ")+")")
	surrogate := flag.Bool("surrogate", false, "pre-screen candidates with an online surrogate model: only the most promising reach the real evaluator")
	screenTopK := flag.Int("screen-topk", 0, "with -surrogate: admitted new candidates per screened batch (0 = automatic; implies -surrogate when set)")
	frontJSON := flag.String("front-json", "", "write the Pareto front as byte-stable JSON to this file (diffable against the tuning service's /front)")
	flag.Parse()

	ran := methodThatRuns(*method, *raceInterval, *raceBudget, *raceStrategies)
	racing := ran == autotune.MethodRace
	race := autotune.RaceOptions{Strategies: splitStrategies(*raceStrategies), Interval: *raceInterval, Budget: *raceBudget}
	choices := driver.Options{
		Method:            driver.Method(*method),
		Race:              race,
		N:                 *n,
		Islands:           *islands,
		MigrationInterval: *migrate,
		Surrogate:         *surrogate,
		ScreenTopK:        *screenTopK,
		EvalTimeout:       *evalTimeout,
		CheckpointPath:    *checkpoint,
		ResumeFrom:        *resume,
	}
	err := validateChoices(choices)
	if err == nil && *deadline < 0 {
		err = fmt.Errorf("-deadline %s must not be negative", *deadline)
	}
	if err == nil && *faultDemo < 0 {
		err = fmt.Errorf("-fault-demo %d must not be negative", *faultDemo)
	}
	if err == nil && !(*faultRate >= 0 && *faultRate <= 1) {
		err = fmt.Errorf("-fault-rate %g must be within [0, 1]", *faultRate)
	}
	if err == nil && racing {
		// Any race flag selects the race (WithRace below); the method
		// named beside it must still be a known one.
		choices.Method = driver.MethodRace
		err = validateChoices(choices)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "autotune:", err)
		os.Exit(2)
	}
	screenTopKSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "screen-topk" {
			screenTopKSet = true
		}
	})
	if err := validateScreenTopK(*screenTopK, screenTopKSet); err != nil {
		fmt.Fprintln(os.Stderr, "autotune:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the search context: the search stops at the
	// next generation boundary, the last completed generation stays
	// checkpointed, and the partial front is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	opts := []autotune.Option{
		autotune.WithMethod(autotune.Method(*method)),
		autotune.WithSeed(*seed),
		autotune.WithNoise(0.01),
		autotune.WithContext(ctx),
	}
	if racing {
		opts = append(opts, autotune.WithRace(race))
	}
	if *surrogate || *screenTopK > 0 {
		opts = append(opts, autotune.WithSurrogate(*screenTopK))
	}
	if *evalTimeout > 0 {
		opts = append(opts, autotune.WithEvalTimeout(*evalTimeout))
	}
	switch {
	case *resume != "":
		opts = append(opts, autotune.WithResume(*resume))
	case *checkpoint != "":
		opts = append(opts, autotune.WithCheckpoint(*checkpoint))
	}
	if *machineFile != "" {
		data, err := os.ReadFile(*machineFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		m, err := machine.FromJSON(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		opts = append(opts, autotune.WithMachineSpec(m))
		*machineName = m.Name
	} else {
		opts = append(opts, autotune.WithMachine(*machineName))
	}
	if *unroll {
		opts = append(opts, autotune.WithUnrollDimension())
	}
	if *islands > 1 {
		opts = append(opts, autotune.WithIslands(*islands, *migrate))
	}
	if *n > 0 {
		opts = append(opts, autotune.WithProblemSize(*n))
	}
	if *energy {
		opts = append(opts, autotune.WithEnergyObjective())
	}
	if *measured {
		opts = append(opts, autotune.WithMeasuredExecution(3))
	}
	if *dbDir != "" {
		db, err := autotune.OpenDB(*dbDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		defer func() {
			if err := db.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "autotune: closing tuning database:", err)
			}
		}()
		opts = append(opts, autotune.WithDB(db))
		if *warm {
			opts = append(opts, autotune.WithWarmStart())
		}
	}

	var res *autotune.TuneResult
	target := *kernel
	if *programFile != "" {
		src, rerr := os.ReadFile(*programFile)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "autotune:", rerr)
			os.Exit(1)
		}
		res, err = autotune.TuneSource(string(src), opts...)
		target = *programFile
	} else {
		res, err = autotune.Tune(*kernel, opts...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "autotune:", err)
		os.Exit(1)
	}

	fmt.Printf("%s on %s via %s: %d evaluations, %d iterations, %d Pareto-optimal versions\n",
		target, *machineName, ran, res.Evaluations, res.Iterations, len(res.Unit.Versions))
	if res.Partial {
		fmt.Println("search interrupted: the front below is the best found so far, not the final one")
		ckpt := *checkpoint
		if *resume != "" {
			ckpt = *resume
		}
		if ckpt != "" {
			fmt.Printf("finish the search with: -resume %s (keep the other flags identical)\n", ckpt)
		}
	}
	fmt.Printf("%-4s %-18s %-8s %s\n", "#", "tiles", "threads", strings.Join(res.Unit.ObjectiveNames, " / "))
	for i, v := range res.Unit.Versions {
		objs := make([]string, len(v.Meta.Objectives))
		for j, o := range v.Meta.Objectives {
			objs[j] = fmt.Sprintf("%.4g", o)
		}
		tiles := make([]string, len(v.Meta.Tiles))
		for j, t := range v.Meta.Tiles {
			tiles[j] = fmt.Sprint(t)
		}
		fmt.Printf("%-4d %-18s %-8d %s\n", i, strings.Join(tiles, "x"), v.Meta.Threads, strings.Join(objs, " / "))
		if *showCode {
			fmt.Println(indent(v.Code, "     | "))
		}
	}

	if *frontJSON != "" {
		f, err := os.Create(*frontJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		err = export.FrontJSON(f, res.Front, res.Unit.ObjectiveNames)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		fmt.Printf("Pareto front JSON written to %s\n", *frontJSON)
	}

	if *emitC != "" {
		code, err := res.EmitC(cFuncBase(res.Unit.Region))
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*emitC, []byte(code), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		fmt.Printf("C translation unit written to %s\n", *emitC)
	}

	if *faultDemo > 0 {
		if err := runFaultDemo(res.Unit, *faultDemo, *faultRate, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
	}

	if *out != "" {
		data, err := res.Unit.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		fmt.Printf("multi-versioned unit written to %s\n", *out)
	}
}

// runFaultDemo exercises the runtime's fault-tolerance layer on the
// freshly tuned unit: the fastest version gets an injected error rate,
// a time-priority policy keeps preferring it, and the fallback +
// quarantine machinery has to absorb every failure.
func runFaultDemo(unit *autotune.Unit, n int, rate float64, seed int64) error {
	if err := unit.Bind(func(m autotune.Meta) (autotune.Entry, error) {
		return func() error { return nil }, nil
	}); err != nil {
		return err
	}
	rt, err := autotune.NewRuntime(unit, autotune.WeightedSum{Weights: []float64{1, 0}})
	if err != nil {
		return err
	}
	fastest := 0
	for i, v := range unit.Versions {
		if v.Meta.Objectives[0] < unit.Versions[fastest].Meta.Objectives[0] {
			fastest = i
		}
	}
	rt.SetFaultInjector(&autotune.FaultInjector{ErrorRate: rate, Versions: []int{fastest}, Seed: seed})

	fmt.Printf("\nfault demo: %d invocations, %.0f%% error rate on version %d\n", n, rate*100, fastest)
	callerErrors := 0
	for i := 0; i < n; i++ {
		if _, err := rt.Invoke(); err != nil {
			callerErrors++
		}
	}
	st := rt.Stats()
	fmt.Printf("caller errors %d | failures absorbed %d | fallbacks %d | quarantines %d | readmissions %d\n",
		callerErrors, st.Failures, st.Fallbacks, st.Quarantines, st.Readmissions)
	return nil
}

// validateScreenTopK rejects a meaningless surrogate screen upfront:
// an explicitly passed -screen-topk must be positive — 0 is only valid
// as the implicit "size the screen automatically" default, and a
// negative cap would silently admit nothing.
func validateScreenTopK(topK int, explicit bool) error {
	if explicit && topK <= 0 {
		return fmt.Errorf("-screen-topk must be > 0 (got %d); omit it to let -surrogate size the screen automatically", topK)
	}
	return nil
}

// methodThatRuns is the method the search runs and the summary names:
// any -race-* flag selects the race (WithRace overrides -method).
func methodThatRuns(method string, raceInterval, raceBudget int, raceStrategies string) autotune.Method {
	if raceInterval > 0 || raceBudget > 0 || raceStrategies != "" {
		return autotune.MethodRace
	}
	return autotune.Method(method)
}

// splitStrategies parses the -race-strategies comma list.
func splitStrategies(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// validateChoices rejects, before anything is opened or created, a
// flag combination the driver would refuse: an unknown -method, a race
// the optimizer could not run (fewer than two -race-strategies, a
// repeated, unknown or exhaustive one, a negative -race-interval or
// -race-budget) — each naming the valid values where there is a list —
// a negative -n, -islands, -migrate or -eval-timeout, or -islands,
// -surrogate or -checkpoint/-resume on a method that has none.
func validateChoices(choices driver.Options) error {
	if err := driver.CheckOptions(choices, false); err != nil {
		return errors.New(strings.TrimPrefix(err.Error(), "driver: "))
	}
	return nil
}

// cFuncBase names the emitted C functions after what was tuned: the
// program the tuned region belongs to (a region is named
// <program>#<index>), the kernel's or the -program file's, made a C
// identifier.
func cFuncBase(region string) string {
	prog, _, _ := strings.Cut(region, "#")
	b := []byte(prog)
	for i, c := range b {
		if c != '_' && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (c < '0' || c > '9') {
			b[i] = '_'
		}
	}
	if len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
		return "k" + string(b)
	}
	return string(b)
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
