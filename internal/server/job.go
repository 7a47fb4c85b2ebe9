// Package server turns the autotune library into a multi-tenant
// tuning service: clients submit tuning jobs over an HTTP JSON API, an
// internal orchestrator schedules concurrent searches over a bounded
// worker pool, and finished Pareto fronts are served back byte-stable.
//
// The orchestrator deduplicates identical requests by tuning-database
// key (two clients tuning the same program/machine/objectives/space
// share one search), enforces per-tenant admission quotas, shares one
// persistent tunedb so every completed job warm-starts future ones,
// and drains gracefully: on shutdown, running searches checkpoint at
// the next generation boundary and queued jobs persist, so a restarted
// server resumes every interrupted job to a byte-identical front.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"autotune/internal/driver"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
)

// Request size limits. MaxRequestBytes bounds the whole JSON body;
// maxSourceBytes bounds the embedded MiniIR program text.
const (
	MaxRequestBytes = 1 << 20   // 1 MiB
	maxSourceBytes  = 256 << 10 // 256 KiB
)

// JobRequest is the JSON body of one tuning-job submission. Exactly
// one of Kernel (a built-in benchmark) or Source (a MiniIR text
// program) selects the tuning target.
type JobRequest struct {
	// Tenant attributes the job for quota accounting. Empty falls back
	// to the X-Tenant header, then to "default".
	Tenant string `json:"tenant,omitempty"`
	// Kernel names a built-in benchmark kernel (mm, 2mm, ...).
	Kernel string `json:"kernel,omitempty"`
	// Source is a MiniIR text program tuned via TuneSource.
	Source string `json:"source,omitempty"`
	// Machine names the target machine (default Westmere).
	Machine string `json:"machine,omitempty"`
	// Method selects the search strategy (default rs-gde3).
	Method string `json:"method,omitempty"`
	// Seed fixes the random seed of stochastic strategies.
	Seed int64 `json:"seed,omitempty"`
	// N overrides the kernel's default problem size.
	N int64 `json:"n,omitempty"`
	// PopSize / MaxIterations / Stagnation override the evolutionary
	// parameters (0 keeps each library default).
	PopSize       int `json:"pop_size,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
	Stagnation    int `json:"stagnation,omitempty"`
	// Islands > 1 runs the search as parallel islands; Migrate is the
	// migration interval in generations.
	Islands int `json:"islands,omitempty"`
	Migrate int `json:"migrate,omitempty"`
	// RandomBudget caps random/grid search evaluations.
	RandomBudget int `json:"random_budget,omitempty"`
	// Energy adds the modeled-energy objective (3-objective tuning).
	Energy bool `json:"energy,omitempty"`
	// Surrogate enables surrogate pre-screening with the given TopK
	// (0 = automatic batch quarter).
	Surrogate  bool `json:"surrogate,omitempty"`
	ScreenTopK int  `json:"screen_top_k,omitempty"`
	// Noise is the simulated measurement-noise amplitude.
	Noise float64 `json:"noise,omitempty"`
	// Deadline bounds the search wall-clock (Go duration string, e.g.
	// "30s"); an expired job keeps its best-so-far partial front.
	Deadline string `json:"deadline,omitempty"`
	// WarmStart overrides the server's warm-start default for this job
	// (nil = server default). A warm-started job reuses every result
	// the shared tuning database already holds for its key, so its
	// front may differ from a cold same-seed run.
	WarmStart *bool `json:"warm_start,omitempty"`
	// Force bypasses request deduplication: the job runs its own
	// search even when an identical one is queued, running or done.
	Force bool `json:"force,omitempty"`
}

// requestError is a client-side request defect: the server answers it
// with a structured 4xx instead of a 500.
type requestError struct {
	msg   string
	cause error
}

func (e *requestError) Error() string { return e.msg }

// Unwrap exposes the underlying defect so transport-level causes (an
// http.MaxBytesError, say) stay matchable through errors.As.
func (e *requestError) Unwrap() error { return e.cause }

func reqErrf(format string, args ...interface{}) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

func reqErrWrap(cause error, format string, args ...interface{}) error {
	return &requestError{msg: fmt.Sprintf(format, args...), cause: cause}
}

// isRequestError reports whether err is a client-request defect.
func isRequestError(err error) bool {
	var re *requestError
	return errors.As(err, &re)
}

// decodeJobRequest parses and validates one job-submission body. Every
// malformed input — syntactically broken JSON, unknown fields,
// oversized programs, unknown methods or machines — yields a
// requestError, never a panic.
func decodeJobRequest(r io.Reader) (*JobRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes+1))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, reqErrWrap(err, "invalid job request: %v", err)
	}
	// A second document (or trailing garbage) is a malformed request,
	// not an ignorable extra.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, reqErrf("invalid job request: trailing data after the JSON document")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request against the library's accepted kernels,
// machines and methods. All failures are requestErrors.
func (r *JobRequest) Validate() error {
	if (r.Kernel == "") == (r.Source == "") {
		return reqErrf("exactly one of \"kernel\" or \"source\" must be set")
	}
	if len(r.Source) > maxSourceBytes {
		return reqErrf("source program is %d bytes; the limit is %d", len(r.Source), maxSourceBytes)
	}
	if r.Kernel != "" {
		if _, err := kernels.ByName(r.Kernel); err != nil {
			return reqErrf("unknown kernel %q (valid: %s)", r.Kernel, strings.Join(kernels.Names(), ", "))
		}
	}
	opt, err := r.options()
	if err != nil {
		return err
	}
	if r.Deadline != "" {
		d, err := time.ParseDuration(r.Deadline)
		if err != nil || d <= 0 {
			return reqErrf("invalid deadline %q: want a positive Go duration like \"30s\"", r.Deadline)
		}
	}
	// The driver's own check, on the options this request turns into:
	// an unknown method, a negative size, count or noise amplitude, or
	// islands or a surrogate screen on a method that has none, is the
	// client's defect now rather than a failed job later.
	if err := driver.CheckOptions(opt, false); err != nil {
		return reqErrWrap(err, "%s", strings.TrimPrefix(err.Error(), "driver: "))
	}
	return nil
}

// deadline returns the parsed per-job deadline (0 = none). Validate
// has already vetted the string.
func (r *JobRequest) deadline() time.Duration {
	if r.Deadline == "" {
		return 0
	}
	d, _ := time.ParseDuration(r.Deadline)
	return d
}

// machineName returns the effective target machine name.
func (r *JobRequest) machineName() string {
	if r.Machine == "" {
		return "Westmere"
	}
	return r.Machine
}

// methodName returns the effective search method.
func (r *JobRequest) methodName() string {
	if r.Method == "" {
		return string(driver.MethodRSGDE3)
	}
	return r.Method
}

// checkpointable reports whether the request's method keeps the
// generation state the checkpoint journal needs. Non-checkpointable
// jobs restart from scratch after a drain instead of resuming.
func (r *JobRequest) checkpointable() bool {
	return driver.Checkpointable(driver.Method(r.methodName()))
}

// options is the one translation of a request into the driver.Options
// of its search: Validate checks it whole, DedupKey derives the problem
// key from it, and the orchestrator runs it after adding what it owns
// (context, progress, database and warm start, checkpoint journal).
func (r *JobRequest) options() (driver.Options, error) {
	m, err := machine.ByName(r.machineName())
	if err != nil {
		return driver.Options{}, reqErrf("unknown machine %q (valid: Westmere, Barcelona)", r.machineName())
	}
	opt := driver.Options{
		Machine: m,
		N:       r.N,
		Method:  driver.Method(r.methodName()),
		Optimizer: optimizer.Options{
			PopSize:       r.PopSize,
			MaxIterations: r.MaxIterations,
			Stagnation:    r.Stagnation,
			Seed:          r.Seed,
		},
		Islands:           r.Islands,
		MigrationInterval: r.Migrate,
		RandomBudget:      r.RandomBudget,
		Surrogate:         r.Surrogate || r.ScreenTopK > 0,
		ScreenTopK:        r.ScreenTopK,
		NoiseAmp:          r.Noise,
	}
	if r.Energy {
		opt.Objectives = []objective.ObjectiveKind{
			objective.TimeObjective, objective.ResourceObjective, objective.EnergyObjective,
		}
	}
	return opt, nil
}

// DedupKey canonically identifies the search this request asks for:
// the tuning-database problem key (program fingerprint, machine
// signature, objectives, space hash) extended with a hash of every
// search-shaping option. Two requests with equal DedupKeys run the
// same deterministic search and may share one execution.
func (r *JobRequest) DedupKey() (string, error) {
	var problem string
	if r.Kernel != "" {
		opt, err := r.options()
		if err != nil {
			return "", err
		}
		key, err := driver.ProblemKey(r.Kernel, opt)
		if err != nil {
			return "", reqErrf("deriving problem key: %v", err)
		}
		problem = key.String()
	} else {
		// Parsed programs hash by their exact source text: the driver
		// fingerprints the parsed IR, but for dedup purposes the text
		// is just as canonical and needs no parse here.
		h := fnv.New64a()
		h.Write([]byte(r.Source))
		problem = fmt.Sprintf("src%016x|%s", h.Sum64(), r.machineName())
	}
	// An unset warm_start hashes as the "<nil>" it always has, so keys
	// persisted in job records keep matching; a set one hashes by value,
	// not — as %v of the pointer did — by address.
	warm := "<nil>"
	if r.WarmStart != nil {
		warm = strconv.FormatBool(*r.WarmStart)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d|%v|%v|%d|%g|%s",
		r.methodName(), r.Seed, r.PopSize, r.MaxIterations, r.Stagnation,
		r.Islands, r.Migrate, r.RandomBudget, r.Energy, r.Surrogate,
		r.ScreenTopK, r.Noise, warm)
	// A deadline may cut the search short, so a bounded request shares
	// a job only with requests bounded alike; it joins the hash only
	// when set, so an unbounded request hashes as it always has.
	if d := r.deadline(); d > 0 {
		fmt.Fprintf(h, "|deadline=%s", d)
	}
	return fmt.Sprintf("%s|op%016x", problem, h.Sum64()), nil
}

// JobState is the lifecycle state of one job.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// stateInterrupted marks a job stopped by a drain or crash with a
	// resumable checkpoint (or a pending restart); a restarted server
	// re-enqueues it and finishes the search to a byte-identical front.
	stateInterrupted JobState = "interrupted"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// FrontPoint is one Pareto point of a finished job, in the search's
// own front order (not re-sorted), so the served JSON is byte-
// identical to what the library run would export.
type FrontPoint struct {
	Config     []int64   `json:"config"`
	Objectives []float64 `json:"objectives"`
}

// JobResult is the outcome of a finished job.
type JobResult struct {
	ObjectiveNames []string     `json:"objective_names"`
	Points         []FrontPoint `json:"points"`
	Evaluations    int          `json:"evaluations"`
	Iterations     int          `json:"iterations"`
	Versions       int          `json:"versions"`
	// Partial marks a deadline-bounded job that returned its
	// best-so-far front rather than a completed search.
	Partial bool `json:"partial,omitempty"`
}

// JobStatus is the public status snapshot of one job.
type JobStatus struct {
	ID          string     `json:"id"`
	Tenant      string     `json:"tenant"`
	State       JobState   `json:"state"`
	Evaluations int        `json:"evaluations"`
	Error       string     `json:"error,omitempty"`
	Deduped     bool       `json:"deduped,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	// Note says why a job that had a checkpoint journal started its
	// search anew instead of resuming it: the journal did not load, or
	// the search refused its fingerprint. Empty otherwise.
	Note string `json:"note,omitempty"`
}

// jobRecord is the persisted form of one job, stored in the tuning
// database under its ID: everything a restarted server needs to resume
// or re-run it. A checkpointed job's journal is found by the ID.
type jobRecord struct {
	ID        string      `json:"id"`
	Tenant    string      `json:"tenant"`
	Request   *JobRequest `json:"request"`
	State     JobState    `json:"state"`
	DedupKey  string      `json:"dedup_key"`
	Error     string      `json:"error,omitempty"`
	Result    *JobResult  `json:"result,omitempty"`
	Submitted int64       `json:"submitted_unix"`
	Note      string      `json:"note,omitempty"`
}

// Event is one server-sent progress event of a job.
type Event struct {
	State       JobState `json:"state"`
	Evaluations int      `json:"evaluations"`
}

// resultOf extracts the persisted result from a finished search,
// preserving the front's order for byte-stable serving.
func resultOf(out *driver.Output) *JobResult {
	res := &JobResult{
		ObjectiveNames: append([]string(nil), out.Unit.ObjectiveNames...),
		Evaluations:    out.Result.Evaluations,
		Iterations:     out.Result.Iterations,
		Versions:       len(out.Unit.Versions),
		Partial:        out.Result.Partial,
	}
	for _, p := range out.Result.Front {
		fp := FrontPoint{Objectives: append([]float64(nil), p.Objectives...)}
		if cfg, ok := p.Payload.(skeleton.Config); ok {
			fp.Config = append([]int64(nil), cfg...)
		}
		res.Points = append(res.Points, fp)
	}
	return res
}

// validTenant rejects tenant names that could escape quota accounting
// or log sanely; it is deliberately permissive otherwise.
func validTenant(t string) error {
	if len(t) > 128 {
		return reqErrf("tenant name longer than 128 bytes")
	}
	for _, r := range t {
		if r < 0x20 || r == 0x7f {
			return reqErrf("tenant name contains control characters")
		}
	}
	return nil
}
