package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// maxShards bounds the worker's shard cache; least-recently-installed
// generations are evicted first. Deep enough for a base plus several
// Grow/Shrink generations of a handful of graphs.
const maxShards = 8

// maxBodyBytes caps request bodies (shard containers dominate).
const maxBodyBytes = 1 << 30

// rawPart keeps one owned partition's wire tables so a later delta can
// append to or compare against them without re-deriving anything from the
// built engine structures.
type rawPart struct {
	lv, src, dst []int32
}

// workerShard is one installed shard generation: raw tables (for delta
// application), built engine partitions, and the vertex/degree tables the
// algorithm programs need.
type workerShard struct {
	key      string
	numParts int
	verts    []graph.VertexID
	outDeg   []int32
	raw      map[int]*rawPart
	parts    map[int]*pregel.Partition
	idx      map[graph.VertexID]int32
	owned    []int // sorted partition indices
}

// buildWorkerShard materializes a shard payload, either standalone or as a
// delta over base. Raw tables are never mutated after build, so unchanged
// delta entries share the base's slices.
func buildWorkerShard(key string, sp *snap.ShardPayload, base *workerShard) (*workerShard, error) {
	ws := &workerShard{
		key:      key,
		numParts: sp.NumParts,
		outDeg:   sp.OutDeg,
		raw:      make(map[int]*rawPart),
		parts:    make(map[int]*pregel.Partition),
	}
	if sp.IsDelta() {
		if base == nil {
			return nil, fmt.Errorf("dist: delta shard %s has no base", key)
		}
		if len(base.verts) != sp.OldNumVerts {
			return nil, fmt.Errorf("dist: delta base holds %d vertices, payload expects %d", len(base.verts), sp.OldNumVerts)
		}
		ws.verts = make([]graph.VertexID, 0, sp.NumVerts)
		ws.verts = append(append(ws.verts, base.verts...), sp.Verts...)
	} else {
		ws.verts = sp.Verts
	}
	if len(ws.verts) != sp.NumVerts {
		return nil, fmt.Errorf("dist: shard %s holds %d vertices, meta says %d", key, len(ws.verts), sp.NumVerts)
	}
	if len(sp.OutDeg) != sp.NumVerts {
		return nil, fmt.Errorf("dist: shard %s out-degree table holds %d entries, want %d", key, len(sp.OutDeg), sp.NumVerts)
	}

	for i := range sp.Parts {
		p := &sp.Parts[i]
		var rp *rawPart
		switch p.Mode {
		case snap.ShardPartReplace:
			rp = &rawPart{lv: p.LocalVerts, src: p.EdgeSrc, dst: p.EdgeDst}
		case snap.ShardPartUnchanged:
			if base == nil || base.raw[p.Index] == nil {
				return nil, fmt.Errorf("dist: shard %s marks partition %d unchanged without a base copy", key, p.Index)
			}
			rp = base.raw[p.Index]
		case snap.ShardPartAppend:
			old := (*rawPart)(nil)
			if base != nil {
				old = base.raw[p.Index]
			}
			if old == nil {
				return nil, fmt.Errorf("dist: shard %s appends to partition %d without a base copy", key, p.Index)
			}
			rp = &rawPart{
				lv:  append(append(make([]int32, 0, len(old.lv)+len(p.LocalVerts)), old.lv...), p.LocalVerts...),
				src: append(append(make([]int32, 0, len(old.src)+len(p.EdgeSrc)), old.src...), p.EdgeSrc...),
				dst: append(append(make([]int32, 0, len(old.dst)+len(p.EdgeDst)), old.dst...), p.EdgeDst...),
			}
		}
		ws.raw[p.Index] = rp
		part, err := pregel.NewPartition(sp.NumVerts, rp.lv, rp.src, rp.dst)
		if err != nil {
			return nil, fmt.Errorf("dist: shard %s partition %d: %w", key, p.Index, err)
		}
		ws.parts[p.Index] = part
		ws.owned = append(ws.owned, p.Index)
	}
	sort.Ints(ws.owned)
	ws.idx = make(map[graph.VertexID]int32, len(ws.verts))
	for i, v := range ws.verts {
		ws.idx[v] = int32(i)
	}
	return ws, nil
}

// degOf is the out-degree closure the PageRank programs divide by; it must
// agree bit-for-bit with the coordinator's GraphDegreeFunc, which it does
// because the degree table ships verbatim in the shard.
func (ws *workerShard) degOf(id graph.VertexID) float64 {
	i, ok := ws.idx[id]
	if !ok {
		return 0
	}
	return float64(ws.outDeg[i])
}

// shardRun erases the program's type parameters so the worker can hold runs
// of different algorithms in one table; shardRunT carries the real types.
type shardRun interface {
	begin()
	setMirror(p int, local int32, raw []byte) error
	compute(p int) (pregel.ComputeStats, error)
	appendMessages(p int, b *reduceFrameBuilder)
	valSize() int
	msgSize() int
}

type shardRunT[V, M any] struct {
	sc *pregel.ShardCompute[V, M]
	vc Codec[V]
	mc Codec[M]
}

func (r *shardRunT[V, M]) begin() { r.sc.BeginSuperstep() }

func (r *shardRunT[V, M]) setMirror(p int, local int32, raw []byte) error {
	return r.sc.SetMirror(p, local, r.vc.Decode(raw))
}

func (r *shardRunT[V, M]) compute(p int) (pregel.ComputeStats, error) {
	return r.sc.Compute(p)
}

func (r *shardRunT[V, M]) appendMessages(p int, b *reduceFrameBuilder) {
	r.sc.Messages(p, func(local int32, m M) {
		b.pairPrefix(local)
		b.buf = r.mc.Append(b.buf, m)
	})
}

func (r *shardRunT[V, M]) valSize() int { return r.vc.Size() }
func (r *shardRunT[V, M]) msgSize() int { return r.mc.Size() }

func newShardRunT[V, M any](prog pregel.Program[V, M], ws *workerShard, vc Codec[V], mc Codec[M]) (shardRun, error) {
	sc, err := pregel.NewShardCompute(prog, ws.verts, ws.parts)
	if err != nil {
		return nil, err
	}
	return &shardRunT[V, M]{sc: sc, vc: vc, mc: mc}, nil
}

// newShardRun instantiates the worker-side program named by the run spec
// from the same wire table the coordinator dispatches through, fed by the
// shard's shipped degree table.
func newShardRun(spec RunSpec, ws *workerShard) (shardRun, error) {
	w, err := lookupWire(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	return w.start(spec, ws)
}

// workerRun is one live run's compute state plus its superstep sequencer.
type workerRun struct {
	mu       sync.Mutex
	shard    *workerShard
	run      shardRun
	lastStep int
}

// Worker owns a process's shard cache and live runs and serves the
// /dist/v1 protocol.
type Worker struct {
	mu     sync.Mutex
	shards map[string]*workerShard
	order  []string // install order, oldest first, for eviction
	runs   map[string]*workerRun
}

// NewWorker returns an empty worker.
func NewWorker() *Worker {
	return &Worker{
		shards: make(map[string]*workerShard),
		runs:   make(map[string]*workerRun),
	}
}

// installShard stores a built shard, evicting the oldest generation beyond
// the cache bound.
func (w *Worker) installShard(ws *workerShard) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.shards[ws.key]; !ok {
		w.order = append(w.order, ws.key)
	}
	w.shards[ws.key] = ws
	for len(w.order) > maxShards {
		oldest := w.order[0]
		w.order = w.order[1:]
		delete(w.shards, oldest)
	}
}

func (w *Worker) shard(key string) (*workerShard, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ws, ok := w.shards[key]
	return ws, ok
}

// NumShards reports the cached shard count (for healthz and tests).
func (w *Worker) NumShards() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.shards)
}

// Handler builds the worker's HTTP mux from the ProtocolMessages table —
// every rpc entry must resolve to a handler (handlerFor panics otherwise),
// so the protocol table and the served surface cannot drift apart.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, pm := range ProtocolMessages {
		if pm.Kind != "rpc" {
			continue
		}
		mux.Handle(pm.Route, w.instrument(pm.Name, w.handlerFor(pm.Name)))
	}
	return mux
}

// handlerFor maps a protocol rpc name to its implementation.
func (w *Worker) handlerFor(name string) http.HandlerFunc {
	switch name {
	case "Health":
		return w.handleHealth
	case "ShardInstall":
		return w.handleShardInstall
	case "ShardDelta":
		return w.handleShardDelta
	case "RunStart":
		return w.handleRunStart
	case "SuperstepExchange":
		return w.handleStep
	case "RunFinish":
		return w.handleRunFinish
	}
	panic(fmt.Sprintf("dist: protocol rpc %q has no handler", name))
}

// statusRecorder captures the status code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (w *Worker) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: rw, code: http.StatusOK}
		h(sr, r)
		cWorkerRequests.With(endpoint, strconv.Itoa(sr.code)).Inc()
	})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{"status": "ok", "shards": w.NumShards()})
}

func readBody(rw http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(rw, "reading body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

func (w *Worker) handleShardInstall(rw http.ResponseWriter, r *http.Request) {
	key := r.Header.Get(HeaderShardKey)
	if key == "" {
		http.Error(rw, "missing "+HeaderShardKey, http.StatusBadRequest)
		return
	}
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	sp, err := snap.DecodeShard(body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if sp.IsDelta() {
		http.Error(rw, "delta payload on the full-install endpoint", http.StatusBadRequest)
		return
	}
	ws, err := buildWorkerShard(key, sp, nil)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.installShard(ws)
	rw.WriteHeader(http.StatusNoContent)
}

func (w *Worker) handleShardDelta(rw http.ResponseWriter, r *http.Request) {
	key := r.Header.Get(HeaderShardKey)
	baseKey := r.Header.Get(HeaderShardBase)
	if key == "" || baseKey == "" {
		http.Error(rw, "missing shard key headers", http.StatusBadRequest)
		return
	}
	base, ok := w.shard(baseKey)
	if !ok {
		http.Error(rw, "base shard not installed: "+baseKey, http.StatusConflict)
		return
	}
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	sp, err := snap.DecodeShard(body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if !sp.IsDelta() {
		http.Error(rw, "full payload on the delta endpoint", http.StatusBadRequest)
		return
	}
	if sp.BaseFP != keyFP(baseKey) {
		http.Error(rw, "delta base fingerprint does not match "+baseKey, http.StatusBadRequest)
		return
	}
	ws, err := buildWorkerShard(key, sp, base)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.installShard(ws)
	rw.WriteHeader(http.StatusNoContent)
}

func (w *Worker) handleRunStart(rw http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(rw, "decoding run spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if spec.Run == "" {
		http.Error(rw, "run spec missing run id", http.StatusBadRequest)
		return
	}
	ws, ok := w.shard(spec.Shard)
	if !ok {
		http.Error(rw, "shard not installed: "+spec.Shard, http.StatusNotFound)
		return
	}
	run, err := newShardRun(spec, ws)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	w.runs[spec.Run] = &workerRun{shard: ws, run: run}
	w.mu.Unlock()
	rw.WriteHeader(http.StatusNoContent)
}

func (w *Worker) handleStep(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	wr, ok := w.runs[id]
	w.mu.Unlock()
	if !ok {
		http.Error(rw, "unknown run: "+id, http.StatusNotFound)
		return
	}
	body, ok := readBody(rw, r)
	if !ok {
		return
	}

	wr.mu.Lock()
	defer wr.mu.Unlock()
	step, parts, err := parseFrame(body, magicBroadcast, wr.run.valSize(), false)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	// Supersteps are strictly sequenced: a retried or reordered frame would
	// double-apply mirror updates, so anything but lastStep+1 is rejected
	// and the coordinator fails the run (and falls back to local).
	if step != wr.lastStep+1 {
		http.Error(rw, fmt.Sprintf("superstep %d out of sequence, expected %d", step, wr.lastStep+1), http.StatusConflict)
		return
	}

	wr.run.begin()
	pairSize := 4 + wr.run.valSize()
	for i := range parts {
		fp := &parts[i]
		if wr.shard.parts[fp.part] == nil {
			http.Error(rw, fmt.Sprintf("partition %d not owned here", fp.part), http.StatusBadRequest)
			return
		}
		for off := 0; off < len(fp.pairs); off += pairSize {
			local := int32(uint32(fp.pairs[off]) | uint32(fp.pairs[off+1])<<8 | uint32(fp.pairs[off+2])<<16 | uint32(fp.pairs[off+3])<<24)
			if err := wr.run.setMirror(fp.part, local, fp.pairs[off+4:off+pairSize]); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
		}
	}

	// Compute every owned partition, ascending — AllEdges programs scan
	// regardless of frontier, and the reduce frame must report stats even
	// for partitions that produced no messages.
	b := newReduceFrameBuilder(step, wr.run.msgSize())
	for _, p := range wr.shard.owned {
		cs, err := wr.run.compute(p)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		b.beginPart(p, cs.Scanned, cs.Visited, cs.Emitted, cs.Cost)
		wr.run.appendMessages(p, b)
		b.endPart()
	}
	wr.lastStep = step

	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(b.bytes())
}

func (w *Worker) handleRunFinish(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	delete(w.runs, id)
	w.mu.Unlock()
	rw.WriteHeader(http.StatusNoContent)
}
