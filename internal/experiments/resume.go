package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"autotune/internal/driver"
	"autotune/internal/export"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/resilience"
)

// ResumeComparison measures what checkpoint/resume buys, on k beside a
// second kernel (jacobi-2d, or mm when k is jacobi-2d): for each
// kernel and method a checkpointed search runs to completion, its
// journal is cut back to the midpoint generation (a deterministic
// stand-in for a crash or SIGINT there), and a resumed search finishes
// from there. The resumed front must be byte-identical to the
// uninterrupted one; "E saved" is the work a restart from scratch would
// have repeated. A run's Results are the full and the resumed search.
func ResumeComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*Comparison, error) {
	second := "jacobi-2d"
	if k.Name == second {
		second = "mm"
	}
	k2, err := kernels.ByName(second)
	if err != nil {
		return nil, err
	}
	pop, gens := 20, 10
	if mode == Quick {
		pop, gens = 12, 6
	}
	dir, err := os.MkdirTemp("", "autotune-resume-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var arms []arm
	for _, method := range []driver.Method{driver.MethodRSGDE3, driver.MethodNSGA2} {
		arms = append(arms, arm{label: string(method), pool: -1, run: func(c *cell) (*Run, error) {
			ckpt := filepath.Join(dir, fmt.Sprintf("%s-%s.ckpt", c.k.Name, method))
			opt := driver.Options{
				Machine:        m,
				NoiseAmp:       noiseAmp,
				Method:         method,
				Optimizer:      optimizer.Options{PopSize: pop, MaxIterations: gens, Seed: 1},
				CheckpointPath: ckpt,
			}
			full, err := driver.TuneKernel(c.k.Name, opt)
			if err != nil {
				return nil, fmt.Errorf("full run: %w", err)
			}
			if err := resilience.TrimCheckpoint(ckpt, full.Result.Iterations/2); err != nil {
				return nil, err
			}
			snap, err := resilience.LoadCheckpoint(ckpt)
			if err != nil {
				return nil, err
			}
			opt.CheckpointPath, opt.ResumeFrom = "", ckpt
			resumed, err := driver.TuneKernel(c.k.Name, opt)
			if err != nil {
				return nil, fmt.Errorf("resumed run: %w", err)
			}
			var a, b bytes.Buffer
			if err := export.FrontJSON(&a, full.Result.Front, nil); err != nil {
				return nil, err
			}
			if err := export.FrontJSON(&b, resumed.Result.Front, nil); err != nil {
				return nil, err
			}
			identical := "no"
			if bytes.Equal(a.Bytes(), b.Bytes()) {
				identical = "yes"
			}
			fullE, newE := full.Result.Evaluations, resumed.Result.Evaluations-snap.Evaluations
			return &Run{Results: []*optimizer.Result{full.Result, resumed.Result}, Cols: []string{
				fmt.Sprint(full.Result.Iterations), fmt.Sprint(snap.Generation),
				fmt.Sprint(fullE), fmt.Sprint(resumed.Result.Evaluations), fmt.Sprint(newE), fmt.Sprint(fullE - newE),
				identical,
			}}, nil
		}})
	}
	runs, err := compare([]*kernels.Kernel{k, k2}, arms)
	if err != nil {
		return nil, err
	}
	return table(fmt.Sprintf("Checkpoint/resume on %s: searches interrupted at the midpoint generation and resumed from the journal", m.Name),
		[]string{"Kernel", "Method", "Gens", "Cut at", "E full", "E resumed", "E new", "E saved", "Front identical"}, runs,
		func(r *Run) []string { return append([]string{r.Kernel, r.Label}, r.Cols...) }), nil
}
