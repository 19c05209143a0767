package cutfit_test

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/dist"
)

// TestSessionDistributedRun drives Session.Run through an attached worker
// pool on loopback sockets and requires the report to be deep-equal to the
// same Session running locally — values, stats, simulated time, all of it —
// for every registered algorithm (local-only ones run in-process) under
// several strategies.
func TestSessionDistributedRun(t *testing.T) {
	g := sessionTestGraph(t)
	ctx := context.Background()

	local := cutfit.NewSession(cutfit.SessionOptions{})
	distSe := cutfit.NewSession(cutfit.SessionOptions{})
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(dist.NewWorker().Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	distSe.AttachWorkers(cutfit.NewWorkerPool(urls))

	for _, s := range []cutfit.Strategy{cutfit.EdgePartition2D(), cutfit.RandomVertexCut(), cutfit.DestinationCut()} {
		for _, alg := range algorithms.Names() {
			want, err := local.Run(ctx, g, s, 6, alg, 8)
			if err != nil {
				t.Fatal(err)
			}
			got, err := distSe.Run(ctx, g, s, 6, alg, 8)
			if err != nil {
				t.Fatalf("distributed %s/%s: %v", alg, s.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: distributed report diverges from local\n got: %+v\nwant: %+v", alg, s.Name(), got, want)
			}
		}
	}
}

// TestSessionDistributedFallback attaches a pool of dead workers: Run must
// log an ERROR, fall back to the local engine, and return the exact report
// a local session produces — a worker loss degrades throughput, never
// correctness or availability.
func TestSessionDistributedFallback(t *testing.T) {
	g := sessionTestGraph(t)
	ctx := context.Background()

	var logBuf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logBuf, nil)))
	defer slog.SetDefault(prev)

	local := cutfit.NewSession(cutfit.SessionOptions{})
	broken := cutfit.NewSession(cutfit.SessionOptions{})
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	broken.AttachWorkers(cutfit.NewWorkerPool([]string{deadURL}))

	want, err := local.Run(ctx, g, cutfit.EdgePartition2D(), 4, "pagerank", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := broken.Run(ctx, g, cutfit.EdgePartition2D(), 4, "pagerank", 5)
	if err != nil {
		t.Fatalf("fallback run failed instead of degrading: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback report diverges from local\n got: %+v\nwant: %+v", got, want)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "level=ERROR") || !strings.Contains(logged, "falling back to local run") {
		t.Fatalf("fallback did not log an ERROR line; log:\n%s", logged)
	}
}

// TestSessionDistributedAfterAppend ships generations as deltas: run, grow
// the graph through the session's append path, run again — both runs must
// match local bit-for-bit.
func TestSessionDistributedAfterAppend(t *testing.T) {
	g := sessionTestGraph(t)
	ctx := context.Background()

	local := cutfit.NewSession(cutfit.SessionOptions{})
	distSe := cutfit.NewSession(cutfit.SessionOptions{})
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(dist.NewWorker().Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	distSe.AttachWorkers(cutfit.NewWorkerPool(urls))

	strat := cutfit.CanonicalRandomVertexCut()
	compare := func(label string, lg, dg *cutfit.Graph) {
		t.Helper()
		want, err := local.Run(ctx, lg, strat, 5, "pagerank", 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := distSe.Run(ctx, dg, strat, 5, "pagerank", 6)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: distributed report diverges from local", label)
		}
	}
	compare("base", g, g)

	batch := []cutfit.Edge{{Src: 0, Dst: 997}, {Src: 997, Dst: 998}, {Src: 998, Dst: 3}}
	lg2, err := local.AppendEdges(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	dg2, err := distSe.AppendEdges(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	compare("grown", lg2, dg2)
}
