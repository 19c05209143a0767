package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// prepareWorker ensures worker wIdx holds the shard for (pg, key): nothing
// if it was the last shard shipped to that worker (a stale entry is healed
// by RunStart's 404 → full re-ship), else a full container. Caller holds
// pool.mu.
func (p *Pool) prepareWorker(ctx context.Context, wIdx int, key string, pg *pregel.PartitionedGraph) error {
	if p.lastKey[wIdx] == key {
		cShards.With("reused").Inc()
		return nil
	}
	if err := p.shipShard(ctx, wIdx, key, pg); err != nil {
		return err
	}
	p.lastKey[wIdx] = key
	return nil
}

// shipShard installs worker wIdx's full shard of pg under key.
func (p *Pool) shipShard(ctx context.Context, wIdx int, key string, pg *pregel.PartitionedGraph) error {
	full := snap.EncodeShard(extractShard(pg, wIdx, len(p.urls)))
	if err := p.tr.InstallShard(ctx, p.urls[wIdx], key, full); err != nil {
		return err
	}
	cShards.With("full").Inc()
	return nil
}

// exchanger ships the engine's mirror phases over the pool: broadcast
// frames out to every worker, one barrier wait, reduce frames merged back
// in ascending partition order.
type exchanger[V, M any] struct {
	pool       *Pool
	pg         *pregel.PartitionedGraph
	runID      string
	vc         Codec[V]
	mc         Codec[M]
	stateBytes func(V) int

	// bufs accumulates each partition's (local, value) broadcast pairs;
	// reused across supersteps.
	bufs []framePart
}

func newExchanger[V, M any](pool *Pool, pg *pregel.PartitionedGraph, runID string, prog *pregel.Program[V, M], vc Codec[V], mc Codec[M]) *exchanger[V, M] {
	sb := prog.StateBytes
	if sb == nil {
		sb = func(V) int { return 8 }
	}
	return &exchanger[V, M]{
		pool:       pool,
		pg:         pg,
		runID:      runID,
		vc:         vc,
		mc:         mc,
		stateBytes: sb,
		bufs:       make([]framePart, pg.NumParts),
	}
}

func (ex *exchanger[V, M]) Exchange(ctx context.Context, step int, changed []uint64, masterVals []V, deliver func(gidx int32, m M), ss *pregel.SuperstepStats) error {
	numParts := ex.pg.NumParts
	W := ex.pool.Size()
	for p := range ex.bufs {
		ex.bufs[p].part = p
		ex.bufs[p].n = 0
		ex.bufs[p].pairs = ex.bufs[p].pairs[:0]
	}

	// Batch broadcast pairs per partition, walking the changed bitset
	// ascending; mirror slots of one vertex are visited in routing-CSR
	// order, so each partition's pair list ends up ascending by local index
	// (LocalVerts is sorted by global index).
	for wi, w := range changed {
		base := int32(wi << 6)
		for w != 0 {
			v := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			val := masterVals[v]
			ex.pg.ForEachMirror(v, func(part, local int32) {
				buf := &ex.bufs[part]
				buf.pairs = binary.LittleEndian.AppendUint32(buf.pairs, uint32(local))
				buf.pairs = ex.vc.Append(buf.pairs, val)
				buf.n++
				ss.BroadcastMsgs++
				ss.BroadcastBytes += int64(ex.stateBytes(val))
			})
		}
	}

	// One frame per worker (only its owned partitions with changed
	// mirrors), posted concurrently; waiting for the slowest worker is the
	// superstep barrier.
	frames := make([][]byte, W)
	errs := make([]error, W)
	barrierStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		var wparts []framePart
		for p := w; p < numParts; p += W {
			if ex.bufs[p].n > 0 {
				wparts = append(wparts, ex.bufs[p])
			}
		}
		frame := encodeBroadcastFrame(step, wparts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[w], errs[w] = ex.pool.tr.Step(ctx, ex.pool.urls[w], ex.runID, frame)
		}()
	}
	wg.Wait()
	hBarrierSeconds.Observe(time.Since(barrierStart).Seconds())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Decode reduce frames and index partitions; every partition must
	// report exactly once.
	entries := make([]*framePart, numParts)
	for w := 0; w < W; w++ {
		gotStep, parts, err := parseFrame(frames[w], magicReduce, ex.mc.Size(), true)
		if err != nil {
			return fmt.Errorf("dist: worker %s reduce frame: %w", ex.pool.urls[w], err)
		}
		if gotStep != step {
			return fmt.Errorf("dist: worker %s answered superstep %d, want %d", ex.pool.urls[w], gotStep, step)
		}
		for i := range parts {
			fp := &parts[i]
			if fp.part < 0 || fp.part >= numParts || workerOf(fp.part, W) != w {
				return fmt.Errorf("dist: worker %s reported partition %d it does not own", ex.pool.urls[w], fp.part)
			}
			if entries[fp.part] != nil {
				return fmt.Errorf("dist: partition %d reported twice", fp.part)
			}
			entries[fp.part] = fp
		}
	}

	// Merge in ascending partition order — per destination vertex that is
	// exactly the local reduce phase's ascending-partition merge order, so
	// float64 combines associate identically.
	ss.ComputePerPart = make([]float64, numParts)
	pairSize := 4 + ex.mc.Size()
	var nPost int64
	for p := 0; p < numParts; p++ {
		e := entries[p]
		if e == nil {
			return fmt.Errorf("dist: partition %d missing from reduce frames", p)
		}
		ss.EdgesScanned += e.scanned
		ss.ActiveEdges += e.visited
		ss.MsgsEmitted += e.emitted
		ss.ComputePerPart[p] = e.cost
		lv := ex.pg.Parts[p].LocalVerts
		for off := 0; off < len(e.pairs); off += pairSize {
			local := binary.LittleEndian.Uint32(e.pairs[off:])
			if int(local) >= len(lv) {
				return fmt.Errorf("dist: partition %d reduce pair local %d out of range [0,%d)", p, local, len(lv))
			}
			deliver(lv[local], ex.mc.Decode(e.pairs[off+4:]))
			nPost++
		}
	}
	cMsgsPre.Add(ss.MsgsEmitted)
	cMsgsPost.Add(nPost)
	return nil
}

// runDist executes one algorithm distributed: prepare shards on every
// worker, bind a run, then let the engine drive supersteps through the
// exchanger. Any worker failure fails the whole run — the caller
// (Session) falls back to a local run, which is bit-identical anyway.
func runDist[V, M any](ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, prog pregel.Program[V, M], spec RunSpec, vc Codec[V], mc Codec[M]) ([]V, *pregel.RunStats, error) {
	W := pool.Size()
	if W == 0 {
		return nil, nil, errors.New("dist: pool has no workers")
	}
	sum := topoSum(pg)
	keys := make([]string, W)

	pool.mu.Lock()
	for w := 0; w < W; w++ {
		keys[w] = shardKey(pg.G, sum, pg.NumParts, w, W)
		if err := pool.prepareWorker(ctx, w, keys[w], pg); err != nil {
			pool.mu.Unlock()
			return nil, nil, err
		}
	}
	pool.mu.Unlock()

	runID := pool.nextRunID()
	for w := 0; w < W; w++ {
		s := spec
		s.Run = runID
		s.Shard = keys[w]
		err := pool.tr.StartRun(ctx, pool.urls[w], s)
		if errors.Is(err, ErrShardMissing) {
			// The worker evicted the shard (or restarted) since the pool
			// last shipped it: re-ship a full container and retry once.
			if err = pool.shipShard(ctx, w, keys[w], pg); err == nil {
				err = pool.tr.StartRun(ctx, pool.urls[w], s)
			}
		}
		if err != nil {
			return nil, nil, err
		}
	}

	ex := newExchanger(pool, pg, runID, &prog, vc, mc)
	vals, stats, err := pregel.RunExchanged(ctx, pg, prog, ex)

	// Best-effort release of worker state, even after failure; a worker
	// that is gone simply errors and is ignored.
	finishCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	for w := 0; w < W; w++ {
		_ = pool.tr.FinishRun(finishCtx, pool.urls[w], runID)
	}

	if err != nil {
		return nil, nil, err
	}
	cRuns.With("distributed").Inc()
	return vals, stats, nil
}

// NoteFallback records a run that was dispatched distributed but fell back
// to local execution; Session calls it when a cluster run fails.
func NoteFallback() { cRuns.With("fallback").Inc() }
