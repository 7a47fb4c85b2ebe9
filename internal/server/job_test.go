package server

import (
	"reflect"
	"strings"
	"testing"

	"autotune/internal/driver"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
)

func TestDecodeJobRequestValid(t *testing.T) {
	req, err := decodeJobRequest(strings.NewReader(
		`{"kernel":"mm","machine":"Barcelona","method":"gde3","seed":7,"pop_size":8,"deadline":"30s"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Kernel != "mm" || req.Machine != "Barcelona" || req.Seed != 7 {
		t.Fatalf("decoded %+v", req)
	}
	if req.deadline().Seconds() != 30 {
		t.Fatalf("deadline %v", req.deadline())
	}
}

func TestDecodeJobRequestRejects(t *testing.T) {
	cases := map[string]string{
		"broken json":                       `{"kernel":`,
		"unknown field":                     `{"kernel":"mm","bogus":1}`,
		"no target":                         `{}`,
		"both targets":                      `{"kernel":"mm","source":"program p"}`,
		"unknown kernel":                    `{"kernel":"nope"}`,
		"unknown machine":                   `{"kernel":"mm","machine":"PDP-11"}`,
		"unknown method":                    `{"kernel":"mm","method":"simulated-annealing"}`,
		"negative seed ok but negative pop": `{"kernel":"mm","pop_size":-1}`,
		"negative noise":                    `{"kernel":"mm","noise":-0.5}`,
		"negative n":                        `{"kernel":"mm","n":-64}`,
		"negative iterations":               `{"kernel":"mm","max_iterations":-1}`,
		"negative stagnation":               `{"kernel":"mm","stagnation":-1}`,
		"negative islands":                  `{"kernel":"mm","islands":-2}`,
		"negative migrate":                  `{"kernel":"mm","islands":4,"migrate":-3}`,
		"negative random budget":            `{"kernel":"mm","method":"random","random_budget":-1}`,
		"negative screen":                   `{"kernel":"mm","surrogate":true,"screen_top_k":-1}`,
		"bad deadline":                      `{"kernel":"mm","deadline":"soon"}`,
		"negative deadline":                 `{"kernel":"mm","deadline":"-5s"}`,
		"trailing garbage":                  `{"kernel":"mm"}{"kernel":"mm"}`,
		"oversized source":                  `{"source":"` + strings.Repeat("x", maxSourceBytes+1) + `"}`,
		"islands on a walk":                 `{"kernel":"mm","method":"grid","islands":2}`,
		"islands on a race":                 `{"kernel":"mm","method":"race","islands":2}`,
		"screen on brute force":             `{"kernel":"mm","method":"brute-force","screen_top_k":4}`,
	}
	for name, body := range cases {
		if _, err := decodeJobRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !isRequestError(err) {
			t.Errorf("%s: not a requestError: %v", name, err)
		}
	}
}

func TestDecodeJobRequestErrorListsMethods(t *testing.T) {
	_, err := decodeJobRequest(strings.NewReader(`{"kernel":"mm","method":"nope"}`))
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, want := range []string{"rs-gde3", "gde3", "nsga2", "race", "brute-force"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("method error %q does not list %q", err, want)
		}
	}
}

func TestDedupKeySeparatesSearches(t *testing.T) {
	base := JobRequest{Kernel: "mm", Seed: 1}
	ref, err := base.DedupKey()
	if err != nil {
		t.Fatal(err)
	}
	again, err := (&JobRequest{Kernel: "mm", Seed: 1, Tenant: "other"}).DedupKey()
	if err != nil {
		t.Fatal(err)
	}
	if again != ref {
		t.Fatal("tenant changed the dedup key; identical searches from two tenants must share")
	}
	// warm_start is hashed by value: unset, true and false are three
	// searches, and two requests that both say true are one — each
	// carries its own pointer, as two decoded bodies do.
	warm, warmToo, cold := true, true, false
	first, err := (&JobRequest{Kernel: "mm", Seed: 1, WarmStart: &warm}).DedupKey()
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&JobRequest{Kernel: "mm", Seed: 1, WarmStart: &warmToo}).DedupKey()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("two warm_start:true requests got different dedup keys: the pointer was hashed, not the value")
	}
	variants := []JobRequest{
		{Kernel: "mm", Seed: 2},
		{Kernel: "mm", Seed: 1, Method: "gde3"},
		{Kernel: "mm", Seed: 1, PopSize: 10},
		{Kernel: "mm", Seed: 1, Islands: 4},
		{Kernel: "mm", Seed: 1, Energy: true},
		{Kernel: "mm", Seed: 1, Surrogate: true},
		{Kernel: "mm", Seed: 1, Noise: 0.01},
		{Kernel: "mm", Seed: 1, Machine: "Barcelona"},
		{Kernel: "2mm", Seed: 1},
		{Kernel: "mm", Seed: 1, WarmStart: &warm},
		{Kernel: "mm", Seed: 1, WarmStart: &cold},
		{Source: "program mm\narray A[4][4] elem 8\nfor i = 0..4 { for j = 0..4 { A[i][j] = f(A[i][j]) flops 1 }}", Seed: 1},
	}
	seen := map[string]int{ref: 0}
	for i, v := range variants {
		k, err := v.DedupKey()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		seen[k] = i + 1
	}
}

func TestCheckpointable(t *testing.T) {
	want := map[string]bool{
		"": true, "rs-gde3": true, "gde3": true, "nsga2": true, "motpe": true,
		"random": false, "grid": false, "brute-force": false, "race": false,
	}
	for method, want := range want {
		r := JobRequest{Kernel: "mm", Method: method}
		if got := r.checkpointable(); got != want {
			t.Errorf("checkpointable(%q) = %v, want %v", method, got, want)
		}
	}
	for _, method := range driver.ValidMethods() {
		if _, ok := want[method]; !ok {
			t.Errorf("method %q is accepted by the driver but not classified here", method)
		}
	}
}

func TestValidTenant(t *testing.T) {
	if err := validTenant("team-a/ci"); err != nil {
		t.Fatal(err)
	}
	if err := validTenant(strings.Repeat("x", 200)); err == nil {
		t.Error("oversized tenant accepted")
	}
	if err := validTenant("a\nb"); err == nil {
		t.Error("control characters accepted")
	}
}

// FuzzJobRequest: the submission decoder must never panic and must
// classify every rejection as a structured requestError — malformed
// JSON, unknown fields/methods/kernels, oversized programs included.
func FuzzJobRequest(f *testing.F) {
	f.Add(`{"kernel":"mm","machine":"Westmere","seed":1}`)
	f.Add(`{"kernel":"mm","method":"bogus"}`)
	f.Add(`{"source":"program p\nfor i = 0..4 { }"}`)
	f.Add(`{"kernel":`)
	f.Add(`{"kernel":"mm","deadline":"1h","warm_start":false,"force":true}`)
	f.Add(`{"kernel":"mm","method":"random","islands":4}`)
	f.Add(`{"kernel":"mm","method":"brute-force","surrogate":true}`)
	f.Add(`{"kernel":"mm","method":"nsga2","islands":3,"migrate":2,"screen_top_k":5}`)
	f.Add(`{"unknown":"field"}`)
	f.Add(`[1,2,3]`)
	f.Add(`"just a string"`)
	f.Add("{\"kernel\":\"mm\"}\n{\"kernel\":\"mm\"}")
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeJobRequest(strings.NewReader(body))
		if err != nil {
			if !isRequestError(err) {
				t.Fatalf("non-requestError rejection: %v", err)
			}
			return
		}
		// Accepted requests must be internally consistent: a dedup key
		// must derive without panicking.
		if _, err := req.DedupKey(); err != nil && !isRequestError(err) {
			t.Fatalf("valid request, non-requestError dedup failure: %v", err)
		}
		// And runnable: the options the request turns into, with the
		// journal the orchestrator adds for a checkpointable method, are
		// something the driver's own check accepts, so no accepted job
		// can end failed on a refusal.
		opt, err := req.options()
		if err != nil {
			t.Fatalf("accepted request %q has no options: %v", body, err)
		}
		if req.checkpointable() {
			opt.CheckpointPath = "job.ckpt"
		}
		if err := driver.CheckOptions(opt, false); err != nil {
			t.Fatalf("accepted request %q is refused by the driver: %v", body, err)
		}
	})
}

// TestTuneOptionsBranches: options() is the one translation of a
// request, so every field of what it builds is held here, over six
// requests that between them set every field the search reads.
func TestTuneOptionsBranches(t *testing.T) {
	energy := []objective.ObjectiveKind{objective.TimeObjective, objective.ResourceObjective, objective.EnergyObjective}
	want := []driver.Options{
		{Method: driver.MethodRSGDE3},
		{Method: driver.MethodRSGDE3, Optimizer: optimizer.Options{PopSize: 8, MaxIterations: 2, Stagnation: 2}},
		{Method: driver.MethodRSGDE3, N: 64, Islands: 2, MigrationInterval: 3},
		{Method: driver.MethodRandom, RandomBudget: 50, NoiseAmp: 0.01},
		{Method: driver.MethodRSGDE3, Objectives: energy, Surrogate: true, ScreenTopK: 4},
		{Method: driver.MethodRace},
	}
	for i, r := range optionBranchRequests() {
		r.Seed, r.Machine = int64(10+i), "Barcelona"
		want[i].Optimizer.Seed, want[i].Machine = r.Seed, machine.Barcelona()
		got, err := r.options()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("request %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	// Defaults and the two spellings of a screened search.
	got, err := (&JobRequest{Kernel: "mm", ScreenTopK: 3}).options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, driver.Options{Machine: machine.Westmere(), Method: driver.MethodRSGDE3, Surrogate: true, ScreenTopK: 3}) {
		t.Errorf("screen_top_k alone: %+v", got)
	}
	if _, err := (&JobRequest{Kernel: "mm", Machine: "nope"}).options(); !isRequestError(err) {
		t.Errorf("unknown machine: %v", err)
	}
}

// TestEveryJobRequestFieldIsClassified walks JobRequest by reflection:
// every field is in the table below exactly once, as shaping the
// problem (what is tuned, for which machine and objectives), the search
// (how), or neither, and DedupKey follows the classification — a
// problem field moves the key, a search field moves the option hash
// behind "|op" and leaves the problem part alone, a field that is
// neither moves nothing. A field added to JobRequest fails here until
// someone decides which it is, and DedupKey hashes it or does not
// accordingly.
func TestEveryJobRequestFieldIsClassified(t *testing.T) {
	const (
		problem = "problem"
		search  = "search"
		neither = "neither"
	)
	warm := true
	table := map[string]struct {
		class string
		set   func(*JobRequest)
	}{
		"tenant": {neither, func(r *JobRequest) { r.Tenant = "bob" }},
		"kernel": {problem, func(r *JobRequest) { r.Kernel = "dsyrk" }},
		"source": {problem, func(r *JobRequest) {
			r.Kernel, r.Source = "", "program p\narray A[4] elem 8\nfor i = 0..4 { A[i] = f(A[i]) flops 1 }"
		}},
		"machine": {problem, func(r *JobRequest) { r.Machine = "Barcelona" }},
		"n":       {problem, func(r *JobRequest) { r.N = 96 }},
		"energy":  {problem, func(r *JobRequest) { r.Energy = true }},
		// A nonzero noise amplitude is part of the tuning-database key,
		// so it moves the problem part of a kernel job's key. It is
		// hashed beside the search options as well, as it was before it
		// joined the key, so persisted keys keep matching; that is all
		// a program job's key has of it.
		"noise":          {problem, func(r *JobRequest) { r.Noise = 0.05 }},
		"method":         {search, func(r *JobRequest) { r.Method = "nsga2" }},
		"seed":           {search, func(r *JobRequest) { r.Seed = 7 }},
		"pop_size":       {search, func(r *JobRequest) { r.PopSize = 7 }},
		"max_iterations": {search, func(r *JobRequest) { r.MaxIterations = 7 }},
		"stagnation":     {search, func(r *JobRequest) { r.Stagnation = 7 }},
		"islands":        {search, func(r *JobRequest) { r.Islands = 3 }},
		"migrate":        {search, func(r *JobRequest) { r.Migrate = 3 }},
		"random_budget":  {search, func(r *JobRequest) { r.RandomBudget = 70 }},
		"surrogate":      {search, func(r *JobRequest) { r.Surrogate = true }},
		"screen_top_k":   {search, func(r *JobRequest) { r.ScreenTopK = 3 }},
		"deadline":       {search, func(r *JobRequest) { r.Deadline = "30ms" }},
		"warm_start":     {search, func(r *JobRequest) { r.WarmStart = &warm }},
		"force":          {neither, func(r *JobRequest) { r.Force = true }},
	}
	base := JobRequest{Kernel: "mm"}
	baseKey, err := base.DedupKey()
	if err != nil {
		t.Fatal(err)
	}
	baseProblem, baseOp, _ := strings.Cut(baseKey, "|op")
	typ := reflect.TypeOf(base)
	if len(table) != typ.NumField() {
		t.Errorf("the table classifies %d fields, JobRequest has %d", len(table), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		c, ok := table[name]
		if !ok {
			t.Errorf("JobRequest.%s (%q) is not classified: decide whether it shapes the problem, the search or neither, then hash it in DedupKey or leave it out", typ.Field(i).Name, name)
			continue
		}
		r := base
		c.set(&r)
		if reflect.DeepEqual(reflect.ValueOf(r).Field(i).Interface(), reflect.ValueOf(base).Field(i).Interface()) {
			t.Errorf("%s: the table's setter does not set the field", name)
		}
		key, err := r.DedupKey()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prob, op, _ := strings.Cut(key, "|op")
		switch c.class {
		case problem:
			if key == baseKey {
				t.Errorf("%s shapes the problem and does not move the dedup key", name)
			}
		case search:
			if prob != baseProblem || op == baseOp {
				t.Errorf("%s shapes the search: want the problem part kept and the option hash moved, got %s (base %s)", name, key, baseKey)
			}
		case neither:
			if key != baseKey {
				t.Errorf("%s shapes neither the problem nor the search and moves the dedup key", name)
			}
		default:
			t.Errorf("%s: unknown class %q", name, c.class)
		}
	}
}
