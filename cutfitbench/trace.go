package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cutfit"
)

// A span is one timed call at a layer boundary. Spans of one op share its
// op number; a root span (Parent < 0) is an op ("op.<kind>") or a
// reference computed beside it ("ref.<what>").
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Group spans stand for a Session call whose work the replay spells out
// as layer calls; their own time is the replay's glue, not a layer's.
func isGroup(name string) bool { return strings.HasPrefix(name, "session.") }

// tracer keeps spans in memory; they are written out when the run ends.
// It also sums the engine's RunStats of every traced engine call.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	engine engineTotals
}

type engineTotals struct {
	runs, supersteps            int64
	scanned, active, denseEdges int64
	emitted, reduceMsgs         int64
	broadcastBytes, reduceBytes int64
	seconds                     float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (tr *tracer) begin(name string, op, parent int) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(tr.epoch)})
	return id
}

// finish closes span id and returns its duration.
func (tr *tracer) finish(id int) time.Duration {
	end := time.Since(tr.epoch)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = end
	return end - tr.spans[id].Start
}

// rename renames an open span.
func (tr *tracer) rename(id int, name string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].Name = name
}

// within runs fn under a span, which it finishes whatever fn returns, and
// returns the span's duration; fn gets the span's ID to parent its calls.
func (tr *tracer) within(name string, op, parent int, fn func(id int) error) (time.Duration, error) {
	id := tr.begin(name, op, parent)
	err := fn(id)
	return tr.finish(id), err
}

// call runs fn under a span that has no child spans.
func (tr *tracer) call(name string, op, parent int, fn func() error) (time.Duration, error) {
	return tr.within(name, op, parent, func(int) error { return fn() })
}

// noteEngine adds one local engine run to the engine totals.
func (tr *tracer) noteEngine(st *cutfit.RunStats, d time.Duration, liveEdges int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	e := &tr.engine
	e.runs++
	e.seconds += d.Seconds()
	for _, ss := range st.Supersteps {
		e.supersteps++
		e.scanned += ss.EdgesScanned
		e.active += ss.ActiveEdges
		e.denseEdges += int64(liveEdges)
		e.emitted += ss.MsgsEmitted
		e.reduceMsgs += ss.ReduceMsgs
		e.broadcastBytes += ss.BroadcastBytes
		e.reduceBytes += ss.ReduceBytes
	}
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes finished spans for self-time queries.
type spanTree struct {
	spans    []span
	children map[int][]int
	roots    []int
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[int][]int{}}
	for _, s := range spans {
		if s.Parent < 0 {
			t.roots = append(t.roots, s.ID)
		} else {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		}
	}
	return t
}

func (t *spanTree) dur(id int) time.Duration { return t.spans[id].End - t.spans[id].Start }

// self is a span's duration minus the part of it its children cover.
func (t *spanTree) self(id int) time.Duration {
	kids := t.children[id]
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{t.spans[k].Start, t.spans[k].End})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			covered += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	covered += curE - curS
	return t.dur(id) - covered
}

// walk visits every descendant of id.
func (t *spanTree) walk(id int, fn func(int)) {
	for _, k := range t.children[id] {
		fn(k)
		t.walk(k, fn)
	}
}

// rootsNamed returns the root spans whose name has prefix.
func (t *spanTree) rootsNamed(prefix string) []int {
	var out []int
	for _, r := range t.roots {
		if strings.HasPrefix(t.spans[r].Name, prefix) {
			out = append(out, r)
		}
	}
	return out
}

// sumPerRoot returns, per root that contains a span of every one of
// names, the summed self time of those spans, in seconds.
func (t *spanTree) sumPerRoot(roots []int, names ...string) []float64 {
	var out []float64
	for _, r := range roots {
		var sum time.Duration
		seen := map[string]bool{}
		t.walk(r, func(id int) {
			for _, n := range names {
				if t.spans[id].Name == n {
					sum += t.self(id)
					seen[n] = true
				}
			}
		})
		if len(seen) == len(names) {
			out = append(out, sum.Seconds())
		}
	}
	return out
}

// childrenTime returns, per root that contains a span named group, the
// summed duration of that span's children, in seconds.
func (t *spanTree) childrenTime(roots []int, group string) []float64 {
	var out []float64
	for _, r := range roots {
		var sum time.Duration
		found := false
		t.walk(r, func(id int) {
			if t.spans[id].Name != group {
				return
			}
			found = true
			for _, k := range t.children[id] {
				sum += t.dur(k)
			}
		})
		if found {
			out = append(out, sum.Seconds())
		}
	}
	return out
}

// layerTime returns the summed self time of every layer span under root.
func (t *spanTree) layerTime(root int) time.Duration {
	var sum time.Duration
	t.walk(root, func(id int) {
		if !isGroup(t.spans[id].Name) {
			sum += t.self(id)
		}
	})
	return sum
}

// checkSummary is the part of a RunReport a layer-call replay can
// reproduce from the engine's output: the traffic accounting and the
// algorithm's headline result.
type checkSummary struct {
	Supersteps                int
	Converged, Halted         bool
	Broadcast, Reduce, Active int64
	TopRanks                  []cutfit.VertexRank
	Components                int
	Triangles                 int64
	Reached                   int
}

func summaryOf(rep *cutfit.RunReport) checkSummary {
	return checkSummary{
		Supersteps: rep.Supersteps, Converged: rep.Converged, Halted: rep.Halted,
		Broadcast: rep.BroadcastMsgs, Reduce: rep.ReduceMsgs, Active: rep.ActiveEdges,
		TopRanks: rep.TopRanks, Components: rep.Components, Triangles: rep.Triangles, Reached: rep.Reached,
	}
}

// summarize builds the checkSummary of one engine run on g.
func summarize(g *cutfit.Graph, vals any, st *cutfit.RunStats) checkSummary {
	s := checkSummary{
		Supersteps: st.NumSupersteps(), Converged: st.Converged, Halted: st.Halted,
		Broadcast: st.TotalBroadcastMsgs(), Reduce: st.TotalReduceMsgs(), Active: st.TotalActiveEdges(),
	}
	switch v := vals.(type) {
	case []float64:
		verts := g.Vertices()
		all := make([]cutfit.VertexRank, len(v))
		for i, r := range v {
			all[i] = cutfit.VertexRank{Vertex: verts[i], Rank: r}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Rank != all[j].Rank {
				return all[i].Rank > all[j].Rank
			}
			return all[i].Vertex < all[j].Vertex
		})
		s.TopRanks = all[:min(topRanks, len(all)):min(topRanks, len(all))]
	case []cutfit.VertexID:
		seen := map[cutfit.VertexID]struct{}{}
		for _, l := range v {
			seen[l] = struct{}{}
		}
		s.Components = len(seen)
	case []int64:
		for _, c := range v {
			s.Triangles += c
		}
		s.Triangles /= 3
	case []cutfit.DistMap:
		for _, d := range v {
			if len(d) > 0 {
				s.Reached++
			}
		}
	default:
		panic(fmt.Sprintf("cutfitbench: no summary for %T", vals))
	}
	return s
}

// topRanks is how many top-ranked vertices a pagerank RunReport carries.
const topRanks = 5
