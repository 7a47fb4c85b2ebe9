package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// optionBranchRequests are six requests that between them set every
// JobRequest field the search reads.
func optionBranchRequests() []*JobRequest {
	return []*JobRequest{
		{Kernel: "mm"},
		{Kernel: "mm", PopSize: 8, MaxIterations: 2, Stagnation: 2},
		{Kernel: "mm", N: 64, Islands: 2, Migrate: 3},
		{Kernel: "mm", Method: "random", RandomBudget: 50, Noise: 0.01},
		{Kernel: "mm", Energy: true, Surrogate: true, ScreenTopK: 4},
		{Kernel: "mm", Method: "race"},
	}
}

// servedPin is what one served job is held to: the SHA-256 of the
// bytes GET /v1/jobs/{id}/front answers, E and the iteration count.
type servedPin struct {
	sha256   string
	e, iters int
}

// servedPins were recorded on the commit before the request →
// driver.Options translation was folded into one function: per request
// of optionBranchRequests, the job on a fresh server ("cold") and the
// same request forced through again on that server, warm-started from
// what the first left in the shared database ("warm").
var servedPins = map[string]servedPin{
	"request0/cold": {"b5e370938a34ce3f24792c62fd9d06019107c85334d5ec59749a8930ad6cf10c", 933, 31},
	"request0/warm": {"25b72cb594f834ad97d528998701cb30abd40aa9407d5858efc373c831f5c74e", 115, 4},
	"request1/cold": {"9ea15ae775c2fe28b492bca5e4b5865274c26a9ac94577cf08243efd90019bd2", 24, 2},
	"request1/warm": {"8b63f7629d5af6eb7e5c04bb9b15d585a28ed11618b89548c21442de49af3de4", 16, 2},
	"request2/cold": {"e9f7ad1527479760e258e4973c6cafa651a873f3148fe3af9d957d77b64d6519", 792, 17},
	"request2/warm": {"10add8a29265a975ec7811e68cacb045053e38402879ad1871fda60ed5475f87", 253, 10},
	"request3/cold": {"b5dc7e2a384b9801c3ca8305364d367011ac64b1dfbc64e2116822c25404efff", 50, 0},
	"request3/warm": {"b5dc7e2a384b9801c3ca8305364d367011ac64b1dfbc64e2116822c25404efff", 0, 0},
	"request4/cold": {"2199bb292b417eda367be7248bb51b83b4b851e6f4584472757f0fc46b544572", 126, 24},
	"request4/warm": {"3650fe69d2bc564aad6c292fbbd9b1c1067e35d085ffef3f851c3ad6e73c2eb2", 24, 6},
	"request5/cold": {"0159428e73190b6626446aad61e220ea9f45a4be658ddfcc7ba345ebc760723c", 2471, 52},
	"request5/warm": {"701a0092b34a266685d10b43ae91db818847b172473e61c2b0c8b2d9f677d997", 472, 8},
}

// TestGoldenServedFronts serves optionBranchRequests through a real
// orchestrator — its context, progress feed, database, warm start and
// checkpoint journal attached — and holds every front, E and iteration
// count to servedPins, at GOMAXPROCS 1 and 4.
func TestGoldenServedFronts(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			for i, req := range optionBranchRequests() {
				_, _, c := newTestServer(t, Config{})
				for _, run := range []string{"cold", "warm"} {
					id := fmt.Sprintf("request%d/%s", i, run)
					r := *req
					r.Force = run == "warm"
					st, err := c.Submit(ctx, &r)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					fin, err := c.Wait(ctx, st.ID, 5*time.Millisecond)
					if err != nil || fin.State != StateDone {
						t.Fatalf("%s: state %s, error %q (%v)", id, fin.State, fin.Error, err)
					}
					front, err := c.Front(ctx, st.ID)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					got := servedPin{fmt.Sprintf("%x", sha256.Sum256(front)), fin.Result.Evaluations, fin.Result.Iterations}
					if want := servedPins[id]; got != want {
						t.Errorf("%s: got %#v, pinned %#v", id, got, want)
					}
				}
			}
		})
	}
}
