package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// The program process: it sets the workload up from the edge file, then
// answers the client's run requests one at a time through the program's
// public entry points. It holds no reference data, so its peak resident
// memory is the program's own.

// programArgs configures the program process.
type programArgs struct {
	workload  string
	edgeFile  string
	storeFile string
	vertices  int
	traced    bool
}

type program struct {
	args   programArgs
	g      *eg.Graph
	st     *eg.Store
	budget int64
	lease1 *eg.Lease // the one-worker lease bfs-batch's one-worker ops run under
	rec    *spanRecorder
}

// config is the facade configuration of the workload's ops.
func (p *program) config(oneWorker bool) eg.Config {
	cfg := eg.Config{Flow: eg.FlowAuto}
	switch p.args.workload {
	case wlPageRankInMem:
		cfg.Layout = eg.LayoutGrid
	case wlPageRankStreamed:
		cfg.MemoryBudget = p.budget
	default:
		cfg.Layout = eg.LayoutAdjacency
	}
	if oneWorker {
		cfg.Workers = 1
		if p.args.workload == wlBFSBatch {
			cfg.Lease = p.lease1
		}
	}
	return cfg
}

func runProgram(a programArgs) error {
	in := bufio.NewReader(os.Stdin)
	out := bufio.NewWriterSize(os.Stdout, 1<<20)
	p := &program{args: a}
	if a.traced {
		p.rec = newSpanRecorder(programPid)
	}

	ready := readyReply{}
	var err error
	if ready.Setup, err = p.setup(); err != nil {
		ready.Err = err.Error()
	} else {
		ready.PeakRSSKiB = peakRSSKiB()
		ready.Vertices = a.vertices
		if p.g != nil {
			ready.Vertices = p.g.NumVertices()
		}
		if p.st != nil {
			if fi, err := os.Stat(a.storeFile); err == nil {
				ready.StoreBytes = fi.Size()
			}
			ready.Budget = p.budget
		}
	}
	if a.workload == wlBFSBatch {
		p.lease1 = eg.NewLease(1)
		defer p.lease1.Release()
	}
	if err := writeMsg(out, ready); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if ready.Err != "" {
		return errors.New(ready.Err)
	}

	for {
		var req request
		if err := readMsg(in, &req); err != nil {
			if errors.Is(err, io.EOF) {
				// The client only wanted the set-up.
				return nil
			}
			return err
		}
		switch req.Op {
		case "run":
			if err := p.runOp(req, out); err != nil {
				return err
			}
		case "finish":
			fin := p.finish()
			if err := writeMsg(out, fin); err != nil {
				return err
			}
			return out.Flush()
		default:
			return fmt.Errorf("unknown request %q", req.Op)
		}
	}
}

// setup builds the workload's state from the edge file on disk.
func (p *program) setup() (setupTimes, error) {
	var t setupTimes
	p.rec.begin("bench.setup", -1)
	defer p.rec.end()
	start := time.Now()
	if p.args.workload == wlPageRankStreamed {
		os.Remove(p.args.storeFile) // left by an earlier set-up of the run
		p.rec.begin("oocore.BuildStore", -1)
		_, err := oocore.BuildStore(p.args.storeFile, oocore.BuildOptions{NumVertices: p.args.vertices, Compressed: true}, edgeFileStream(p.args.edgeFile))
		p.rec.end()
		if err != nil {
			return t, fmt.Errorf("build store: %w", err)
		}
		built := time.Now()
		p.rec.begin("oocore.OpenStore", -1)
		st, err := eg.OpenStore(p.args.storeFile)
		p.rec.end()
		if err != nil {
			return t, fmt.Errorf("open store: %w", err)
		}
		done := time.Now()
		p.st = st
		t.Build, t.Open = built.Sub(start).Seconds(), done.Sub(built).Seconds()
		t.Total = done.Sub(start).Seconds()
		p.budget = storeBudget(p.args.storeFile)
		return t, nil
	}

	p.rec.begin("storage.LoadBinary", -1)
	f, err := os.Open(p.args.edgeFile)
	if err != nil {
		p.rec.end()
		return t, err
	}
	g, err := eg.LoadBinary(f, true)
	f.Close()
	p.rec.end()
	if err != nil {
		return t, fmt.Errorf("load: %w", err)
	}
	t.Load = time.Since(start).Seconds()
	// Collecting the loader's garbage before pre-processing starts keeps the
	// set-up's peak memory from depending on when the collector happened to
	// run. The collection is not part of the set-up time.
	runtime.GC()
	prepStart := time.Now()
	p.rec.begin("prep.Prepare", -1)
	_, err = g.Prepare(p.config(false))
	p.rec.end()
	if err != nil {
		return t, fmt.Errorf("prepare: %w", err)
	}
	p.g = g
	t.Prep = time.Since(prepStart).Seconds()
	t.Total = t.Load + t.Prep
	return t, nil
}

// storeBudget is the streamed workload's memory budget: a quarter of the
// store file, so no pass can keep the store resident.
func storeBudget(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size() / 4
}

// edgeFileStream streams the binary edge file in chunks; BuildStore calls
// it once per pass, and no pass holds more than one chunk.
func edgeFileStream(path string) oocore.Stream {
	return func(yield func(chunk []graph.Edge) error) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<20)
		chunk := make([]graph.Edge, 0, 1<<16)
		var rec [edgeRecordBytes]byte
		for {
			_, err := io.ReadFull(br, rec[:])
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("read edge file: %w", err)
			}
			chunk = append(chunk, graph.Edge{
				Src: binary.LittleEndian.Uint32(rec[0:]),
				Dst: binary.LittleEndian.Uint32(rec[4:]),
				W:   math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])),
			})
			if len(chunk) == cap(chunk) {
				if err := yield(chunk); err != nil {
					return err
				}
				chunk = chunk[:0]
			}
		}
		if len(chunk) > 0 {
			return yield(chunk)
		}
		return nil
	}
}

// runOp answers one run request: a forced collection, the timed call, and
// the reply with its answers.
func (p *program) runOp(req request, out *bufio.Writer) error {
	runtime.GC()
	var stats *opStats
	var ioBefore eg.IOStats
	var schedBefore sched.PoolCounters
	var memBefore runtime.MemStats
	if req.Traced {
		stats = &opStats{}
		runtime.ReadMemStats(&memBefore)
		schedBefore = sched.DefaultCounters()
		if p.st != nil {
			ioBefore = p.st.IOStats()
		}
	}
	cfg := p.config(req.OneWorker)
	reply := opReply{ID: req.ID}

	var ranks []float64
	var levels, parents [][]int32
	var runs []*eg.Result
	p.rec.begin("bench.op", req.ID)
	callName := "everythinggraph.Graph.Run"
	switch p.args.workload {
	case wlPageRankStreamed:
		callName = "everythinggraph.Store.Run"
	case wlBFSBatch:
		callName = "everythinggraph.Graph.Batch"
	}
	call := p.rec.begin(callName, req.ID)
	start := time.Now()
	var err error
	switch p.args.workload {
	case wlPageRankInMem, wlPageRankStreamed:
		alg := eg.PageRank()
		var res *eg.Result
		if p.st != nil {
			res, err = p.st.Run(alg, cfg)
		} else {
			res, err = p.g.Run(alg, cfg)
		}
		ranks, runs = alg.Rank, []*eg.Result{res}
	case wlBFSQueries:
		alg := eg.BFS(req.Sources[0])
		var res *eg.Result
		res, err = p.g.Run(alg, cfg)
		levels, parents, runs = [][]int32{alg.Level}, [][]int32{alg.Parent}, []*eg.Result{res}
	case wlBFSBatch:
		var rs []eg.BatchSourceResult
		rs, err = p.g.Batch(eg.BatchBFS, req.Sources, cfg)
		for _, r := range rs {
			levels, parents = append(levels, r.Level), append(parents, r.Parent)
			if len(runs) == 0 || runs[len(runs)-1].Run != r.Run {
				runs = append(runs, &eg.Result{Run: r.Run})
			}
		}
	}
	reply.WallNs = int64(time.Since(start))
	p.rec.end()
	if err != nil {
		p.rec.end()
		reply.Err = err.Error()
		return p.send(out, reply, nil, nil)
	}

	var slowest time.Duration
	for _, r := range runs {
		slowest = max(slowest, r.Run.AlgorithmTime)
	}
	reply.AlgNs = int64(slowest)
	reply.Plan = metrics.CompressPlanTrace(runs[0].Run.PlanTrace())
	if p.rec != nil {
		if p.args.workload == wlBFSBatch {
			p.rec.derived(call, "core.batch_sweep", slowest)
		} else {
			alg := p.rec.derived(call, "core.algorithm", slowest)
			if p.st != nil {
				p.rec.derived(alg, "oocore.io_wait", runs[0].Breakdown.IOWait)
			}
		}
	}
	if stats != nil {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		stats.AllocBytes = mem.TotalAlloc - memBefore.TotalAlloc
		stats.GCCycles = mem.NumGC - memBefore.NumGC
		sc := sched.DefaultCounters().Sub(schedBefore)
		stats.GangLoops, stats.Parks = sc.GangLoops, sc.Parks
		if p.st != nil {
			io := p.st.IOStats().Sub(ioBefore)
			stats.Reads, stats.BytesRead = io.Reads, io.BytesRead
			stats.IOTimeNs, stats.IOWaitNs = int64(io.IOTime), int64(io.IOWait)
			stats.PeakResid = io.PeakResidentBytes
		}
		for _, r := range runs {
			for _, it := range r.Run.PerIteration {
				stats.IterationNs = append(stats.IterationNs, int64(it.Duration))
			}
		}
		reply.Stats = stats
	}

	if req.Corrupt {
		corrupt(ranks, levels)
	}
	for _, l := range levels {
		reply.Hashes = append(reply.Hashes, levelsHash(l))
	}
	reply.Answers = max(len(parents), min(len(ranks), 1))
	p.rec.begin("bench.send", req.ID)
	err = p.send(out, reply, ranks, parents)
	p.rec.end()
	p.rec.end()
	return err
}

// corrupt perturbs one value of the first answer.
func corrupt(ranks []float64, levels [][]int32) {
	if len(ranks) > 0 {
		v := len(ranks) / 2
		ranks[v] *= 1 + 1e-6
	}
	if len(levels) > 0 {
		for v, l := range levels[0] {
			if l > 0 {
				levels[0][v]++
				break
			}
		}
	}
}

func (p *program) send(out *bufio.Writer, reply opReply, ranks []float64, parents [][]int32) error {
	if err := writeMsg(out, reply); err != nil {
		return err
	}
	if _, err := out.Write(asBytes(ranks)); err != nil {
		return err
	}
	for _, par := range parents {
		if _, err := out.Write(asBytes(par)); err != nil {
			return err
		}
	}
	return out.Flush()
}

// finish runs the per-layer microbenchmarks of a traced run and
// reports the process's peak resident memory.
func (p *program) finish() finishReply {
	var fin finishReply
	if p.args.traced {
		if err := p.microbenchmarks(&fin); err != nil {
			fin.Err = err.Error()
		}
		fin.Spans = p.rec.spans
	}
	fin.PeakRSSKiB = peakRSSKiB()
	return fin
}

// peakRSSKiB is the process's peak resident set so far.
func peakRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// microbenchmarks times three layers in isolation: decoding every cell of
// the compressed form of the workload graph's grid (PageRank workloads),
// an empty ParallelFor across all workers, and a pool lease.
func (p *program) microbenchmarks(fin *finishReply) error {
	if p.args.workload == wlPageRankInMem || p.args.workload == wlPageRankStreamed {
		g := p.g
		if g == nil {
			f, err := os.Open(p.args.edgeFile)
			if err != nil {
				return err
			}
			g, err = eg.LoadBinary(f, true)
			f.Close()
			if err != nil {
				return err
			}
			if _, err := g.Prepare(eg.Config{Layout: eg.LayoutGrid}); err != nil {
				return err
			}
		}
		cg := graph.CompressGrid(g.Internal().Grid)
		scratch := make([]graph.Edge, cg.MaxCellEdges)
		var samples []float64
		for rep := 0; rep < 5; rep++ {
			p.rec.begin("graph.DecodeCell", -1)
			start := time.Now()
			for row := 0; row < cg.P; row++ {
				for col := 0; col < cg.P; col++ {
					cg.DecodeCell(row, col, scratch)
				}
			}
			samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(cg.NumEdges()))
			p.rec.end()
		}
		fin.DecodeNsPerEdge = median(samples)
	}

	workers := sched.MaxWorkers()
	const calls = 2000
	var dispatch, lease []float64
	for rep := 0; rep < 5; rep++ {
		p.rec.begin("sched.ParallelFor", -1)
		start := time.Now()
		for i := 0; i < calls; i++ {
			sched.ParallelForChunked(0, workers, 1, workers, func(lo, hi int) {})
		}
		dispatch = append(dispatch, float64(time.Since(start).Nanoseconds())/1e3/calls)
		p.rec.end()
		p.rec.begin("sched.Lease", -1)
		start = time.Now()
		for i := 0; i < calls; i++ {
			sched.DefaultPool().Lease(workers).Release()
		}
		lease = append(lease, float64(time.Since(start).Nanoseconds())/1e3/calls)
		p.rec.end()
	}
	fin.DispatchUs, fin.LeaseUs = median(dispatch), median(lease)
	return nil
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
