// Command repro regenerates the paper's tables and figures, and the
// comparisons of the extensions built on them, on the simulated
// machines.
//
// Usage:
//
//	repro [-exp all|table1|fig1|fig2|table2|table3|table4|table5|fig8|table6|fig9|island|warmstart|race|surrogate|resume|extended|validate]
//	      [-machine Westmere|Barcelona|all] [-kernel mm|...]
//	      [-mode quick|full] [-reps N] [-export DIR]
//
// The default regenerates the paper's evaluation (-exp all) at full
// (paper-scale) budget; `repro -mode full -reps 3` is the command
// behind repro_output.txt.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"autotune/internal/experiments"
	"autotune/internal/kernels"
	"autotune/internal/machine"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// params is what the flags select; each experiment reads what it needs.
type params struct {
	w         io.Writer
	machines  []*machine.Machine
	kernel    *kernels.Kernel
	mode      experiments.Mode
	reps      int
	exportDir string
	// What this invocation ran, by machine, for the experiments that
	// are views of it: the kernel's Sweep, and Table VI for Fig. 9.
	sweeps map[string]*experiments.Sweep
	table6 map[string]*experiments.Comparison
}

// An experiment renders on one machine; once marks those that render
// the same on every machine.
type experiment struct {
	name string
	once bool
	run  func(p *params, m *machine.Machine) error
}

// exps is the one list of -exp names, in paper order followed by the
// extensions: the flag help, the unknown-name error, -exp all and the
// tests all read it. Alone, an experiment renders on every selected
// machine, each rendering followed by a blank line, unless it is the
// same on every machine (once).
var exps = []experiment{
	{"all", true, nil}, // the paper sequence, see all
	{"table1", true, func(p *params, _ *machine.Machine) error { experiments.Table1(p.w); return nil }},
	{"fig1", false, view((*experiments.Sweep).Fig1)},
	{"fig2", false, fig2},
	{"table2", false, view((*experiments.Sweep).Table2)},
	{"table3", false, view((*experiments.Sweep).Table3)},
	{"table4", true, func(p *params, _ *machine.Machine) error { experiments.Table4(p.w); return nil }},
	{"table5", false, func(p *params, m *machine.Machine) error { return experiments.Table5(p.w, m, p.mode) }},
	{"fig8", false, fig8},
	{"table6", false, table6},
	{"fig9", false, fig9},
	{"island", false, comparison(experiments.IslandComparison)},
	{"warmstart", false, comparison(experiments.WarmStartComparison)},
	{"race", false, comparison(experiments.RaceComparison)},
	{"surrogate", false, comparison(experiments.SurrogateComparison)},
	{"resume", false, comparison(experiments.ResumeComparison)},
	{"extended", false, comparison(func(_ *kernels.Kernel, m *machine.Machine, mode experiments.Mode) (*experiments.Comparison, error) {
		return experiments.Extended(m, mode, 1)
	})},
	{"validate", true, func(p *params, _ *machine.Machine) error { return p.show(experiments.Validation()) }},
}

// paper is -exp all, Section V in order: groups of exps, each run
// machine by machine, on the first selected machine only where the
// paper shows one. Renderings are separated by a blank line.
var paper = []struct {
	names []string
	first bool
}{
	{[]string{"table1"}, true}, {[]string{"fig1"}, false}, {[]string{"fig2"}, true},
	{[]string{"table2", "table3"}, false}, {[]string{"table4"}, true}, {[]string{"table5"}, false},
	{[]string{"fig8"}, false}, {[]string{"table6", "fig9"}, false},
	{[]string{"warmstart"}, true}, {[]string{"race"}, true}, {[]string{"surrogate"}, true},
}

func expNames() string {
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func find(name string) int {
	return slices.IndexFunc(exps, func(e experiment) bool { return e.name == name })
}

// run is main without the process: it parses args, runs the selected
// experiment and writes its rendering to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to regenerate ("+expNames()+")")
	machName := fs.String("machine", "all", "target machine (Westmere, Barcelona, all)")
	kernName := fs.String("kernel", "mm", "kernel for single-kernel experiments")
	modeName := fs.String("mode", "full", "evaluation budget (quick, full)")
	reps := fs.Int("reps", 5, "repetitions for stochastic strategies (Table VI)")
	exportDir := fs.String("export", "", "also write figure data (CSV) and gnuplot scripts to this directory (fig2, fig8, fig9)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := &params{w: stdout, reps: *reps, exportDir: *exportDir, machines: []*machine.Machine{machine.Westmere(), machine.Barcelona()},
		sweeps: map[string]*experiments.Sweep{}, table6: map[string]*experiments.Comparison{}}
	var ok bool
	if p.mode, ok = map[string]experiments.Mode{"quick": experiments.Quick, "full": experiments.Full}[*modeName]; !ok {
		return fmt.Errorf("unknown -mode %q (valid: quick, full)", *modeName)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d: want a positive number of repetitions (1, 2, 3, ...)", *reps)
	}
	if *machName != "all" {
		m, err := machine.ByName(*machName)
		if err != nil {
			return err
		}
		p.machines = []*machine.Machine{m}
	}
	var err error
	if p.kernel, err = kernels.ByName(*kernName); err != nil {
		return err
	}
	i := find(*exp)
	switch {
	case i < 0:
		return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, expNames())
	case exps[i].run == nil:
		return all(p)
	case exps[i].once:
		return exps[i].run(p, p.machines[0])
	}
	for _, m := range p.machines {
		if err := exps[i].run(p, m); err != nil {
			return err
		}
		fmt.Fprintln(p.w)
	}
	return nil
}

// all runs the paper sequence.
func all(p *params) error {
	sep := ""
	for _, g := range paper {
		machines := p.machines
		if g.first {
			machines = machines[:1]
		}
		for _, m := range machines {
			for _, name := range g.names {
				fmt.Fprint(p.w, sep)
				sep = "\n"
				if err := exps[find(name)].run(p, m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// show renders r, unless err says there is nothing to render.
func (p *params) show(r interface{ Render(io.Writer) }, err error) error {
	if err == nil {
		r.Render(p.w)
	}
	return err
}

// view renders one view of the kernel's sweep on m, which runs once
// per invocation.
func view(render func(*experiments.Sweep, io.Writer)) func(*params, *machine.Machine) error {
	return func(p *params, m *machine.Machine) error {
		if p.sweeps[m.Name] == nil {
			s, err := experiments.NewSweep(p.kernel, m, p.mode)
			if err != nil {
				return err
			}
			p.sweeps[m.Name] = s
		}
		render(p.sweeps[m.Name], p.w)
		return nil
	}
}

// comparison renders a comparison of the selected kernel.
func comparison(f func(*kernels.Kernel, *machine.Machine, experiments.Mode) (*experiments.Comparison, error)) func(*params, *machine.Machine) error {
	return func(p *params, m *machine.Machine) error { return p.show(f(p.kernel, m, p.mode)) }
}

// fig2 renders the heat maps for the extreme thread counts of m.
func fig2(p *params, m *machine.Machine) error {
	threads := experiments.ThreadCounts(m)
	for i, th := range []int{threads[0], threads[len(threads)-1]} {
		r, err := experiments.Fig2(p.kernel, m, th, p.mode)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(p.w)
		}
		r.Render(p.w)
		if err := r.Export(p.exportDir); err != nil {
			return err
		}
	}
	return nil
}

func fig8(p *params, m *machine.Machine) error {
	if err := view((*experiments.Sweep).Fig8)(p, m); err != nil {
		return err
	}
	return p.sweeps[m.Name].ExportFig8(p.exportDir)
}

func table6(p *params, m *machine.Machine) error {
	c, err := experiments.Table6(kernels.Paper(), m, p.mode, p.reps)
	p.table6[m.Name] = c
	return p.show(c, err)
}

// fig9 renders Fig. 9 from the Table VI run of this invocation on m
// when it holds the kernel, from one repetition of the kernel alone
// otherwise.
func fig9(p *params, m *machine.Machine) error {
	c := p.table6[m.Name]
	if c == nil || !slices.ContainsFunc(c.Runs, func(r *experiments.Run) bool { return r.Kernel == p.kernel.Name }) {
		var err error
		if c, err = experiments.Table6([]*kernels.Kernel{p.kernel}, m, p.mode, 1); err != nil {
			return err
		}
	}
	experiments.Fig9(p.w, m, c, p.kernel.Name)
	return experiments.ExportFig9(p.exportDir, m, c, p.kernel.Name)
}
