package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	defaultScale = 19
	edgeFactor   = 16
	// batchSources is the width of one bfs-batch op: two 64-wide groups.
	batchSources = 128
	// setupReps is how many times a run sets the workload up, each time in
	// a fresh program process; setup_s is the median.
	setupReps = 3
	mib       = 1 << 20
)

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	scale    int
	traced   bool
	workdir  string
	// corruptOp, when positive, is the id of the op whose answer the
	// program process perturbs (self-test only).
	corruptOp int
}

// workloadShape says how a run is made of pairs of ops: one all-core op
// then one one-worker op on the same input (in a traced run: one untraced
// then one traced all-core op). A run warms up with warmupPairs pairs,
// then measures whole rounds, at least minRounds, until --seconds have
// passed. A round is one pair, or on bfs-queries one pair per source, so
// every run measures the same queries.
type workloadShape struct {
	warmupPairs, minRounds int
}

var shapes = map[string]workloadShape{
	wlPageRankInMem:    {warmupPairs: 2, minRounds: 3},
	wlPageRankStreamed: {warmupPairs: 2, minRounds: 3},
	wlBFSQueries:       {warmupPairs: 4, minRounds: 1},
	wlBFSBatch:         {warmupPairs: 1, minRounds: 2},
}

// opRecord is one checked op.
type opRecord struct {
	oneWorker, traced, measured bool
	failed                      bool
	wall, alg                   time.Duration
	answers                     int
	edges                       int64 // TEPS edges of its answers
	stats                       *opStats
	plan                        string
}

// benchRun is one run of one workload.
type benchRun struct {
	opt   options
	ref   *reference
	edges int64 // |E|
	rec   *spanRecorder

	cmd    *exec.Cmd
	pipe   io.WriteCloser
	stdin  *bufio.Writer
	stdout *bufio.Reader
	setups []readyReply // one per program process; the last one serves
	ready  readyReply   // the serving process's

	ops      []opRecord
	nextID   int
	rankBuf  []float64
	parBufs  [][]int32
	checkErr []string
}

func runBenchmark(opt options) error {
	if _, ok := shapes[opt.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", opt.workload, workloads)
	}
	if opt.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	res, err := runWorkload(opt)
	if err != nil {
		return err
	}
	for _, line := range res.lines {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runResult struct {
	lines    []string
	result   result
	failures []string // the first few failed ops, "op <id>: <reason>"
}

func runWorkload(opt options) (sr runResult, err error) {
	s := &benchRun{opt: opt}
	if opt.traced {
		s.rec = newSpanRecorder(clientPid)
	}
	say := func(format string, args ...any) { sr.lines = append(sr.lines, fmt.Sprintf(format, args...)) }
	say("%s", hostLine())

	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return sr, err
	}
	dir, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		return sr, err
	}
	defer os.RemoveAll(dir)
	edgeFile := filepath.Join(dir, "graph.bin")
	storeFile := filepath.Join(dir, "graph.egs")

	// Inputs and reference, before the program process exists.
	workers := runtime.NumCPU()
	s.rec.begin("bench.generate", -1)
	el := generateRMAT(opt.scale, edgeFactor, opt.seed, workers)
	fileBytes, err := writeEdgeFile(edgeFile, el)
	s.rec.end()
	if err != nil {
		return sr, err
	}
	s.edges = int64(el.numEdges())
	s.rec.begin("bench.reference", -1)
	s.ref, err = buildReference(opt, el, workers)
	s.rec.end()
	if err != nil {
		return sr, err
	}
	n := el.n
	el = nil
	runtime.GC()
	debug.FreeOSMemory()
	say("inputs: seed=%d rmat-scale=%d vertices=%d edges=%d edge-file=%.1fMiB sources=%d", opt.seed, opt.scale, n, s.edges, float64(fileBytes)/mib, len(s.ref.bfs))
	if len(s.ref.bfs) > 0 {
		var reached, edges []float64
		for _, r := range s.ref.bfs {
			reached, edges = append(reached, float64(r.reached)), append(edges, float64(r.edges))
		}
		say("bfs reach per source: vertices %s, out-edges %s", spread(reached), spread(edges))
	}

	defer s.stop()
	if err := s.start(edgeFile, storeFile, n); err != nil {
		return sr, err
	}
	if s.ready.Vertices != n {
		return sr, fmt.Errorf("program sees %d vertices, the edge file has %d", s.ready.Vertices, n)
	}
	if s.ready.StoreBytes > 0 {
		say("store: %.1fMiB, memory budget %.1fMiB", float64(s.ready.StoreBytes)/mib, float64(s.ready.Budget)/mib)
	}

	shape := shapes[opt.workload]
	for i := 0; i < shape.warmupPairs; i++ {
		if err := s.pair(i, false); err != nil {
			return sr, err
		}
	}
	pairsPerRound := 1
	if opt.workload == wlBFSQueries {
		pairsPerRound = len(s.ref.bfs)
	}
	total0, steal0 := cpuTicks()
	start := time.Now()
	for round := 0; round < shape.minRounds || time.Since(start) < time.Duration(opt.seconds)*time.Second; round++ {
		for i := 0; i < pairsPerRound; i++ {
			if err := s.pair(i, true); err != nil {
				return sr, err
			}
		}
	}
	measuredFor := time.Since(start)
	total1, steal1 := cpuTicks()

	fin, err := s.finish()
	if err != nil {
		return sr, err
	}
	failed := 0
	for _, op := range s.ops {
		if op.failed {
			failed++
		}
	}
	sr.failures = s.checkErr
	for _, e := range s.checkErr {
		say("failed: %s", e)
	}
	say("plans: %s", planCounts(s.ops))
	say("ops: %d attempted (%d measured in %.1fs), %d failed", len(s.ops), countMeasured(s.ops), measuredFor.Seconds(), failed)
	say("%s", stealLine(total0, steal0, total1, steal1))

	// The run is correct only if every attempted op passed its check and
	// every kind of op the metrics need has a measured sample.
	sr.result = result{Attempted: len(s.ops), Failed: failed, Metrics: map[string]metric{}}
	var sampled bool
	if opt.traced {
		sampled = s.perLayer(fin, sr.result.Metrics, say)
		spans := s.rec.spans
		for _, sp := range fin.Spans {
			if sp.Parent >= 0 {
				sp.Parent += len(s.rec.spans)
			}
			spans = append(spans, sp)
		}
		tracePath := filepath.Join(opt.workdir, "traces", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return sr, err
		}
		if err := writeChromeTrace(tracePath, spans); err != nil {
			return sr, fmt.Errorf("write trace: %w", err)
		}
		say("trace: %s (%d spans)", tracePath, len(spans))
		sr.lines = append(sr.lines, selfTimeLines(spans)...)
	} else {
		sampled = s.endToEnd(fin, sr.result.Metrics, say)
	}
	sr.result.Correct = failed == 0 && sampled
	names := make([]string, 0, len(sr.result.Metrics))
	for name := range sr.result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := sr.result.Metrics[name]
		say("metric %-34s %14.4f %s", name, m.Value, m.Unit)
	}
	return sr, nil
}

// buildReference computes what the workload's checks need.
func buildReference(opt options, el *edgeList, workers int) (*reference, error) {
	ref := &reference{n: el.n, out: buildOutCSR(el)}
	switch opt.workload {
	case wlPageRankInMem, wlPageRankStreamed:
		ref.ranks = pageRankReference(ref.out)
		ref.out = csr{}
		return ref, nil
	}
	ref.in = transpose(ref.out)
	hub, sources, err := pickSources(ref.out, ref.in, batchSources, opt.seed)
	if err != nil {
		return nil, err
	}
	if ref.bfs, err = bfsReferences(ref.out, hub, sources, workers); err != nil {
		return nil, err
	}
	ref.out = csr{}
	return ref, nil
}

// start sets the workload up setupReps times, each in a fresh program
// process, so every set-up starts alike and has its own peak memory. The
// last process stays to answer the ops.
func (s *benchRun) start(edgeFile, storeFile string, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-program", "-workload", s.opt.workload, "-edges", edgeFile, "-store", storeFile,
		"-vertices", strconv.Itoa(n)}
	if s.opt.traced {
		args = append(args, "-trace", "1")
	}
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			// Closing its input ends a process that only set up.
			s.pipe.Close()
			if err := s.cmd.Wait(); err != nil {
				return fmt.Errorf("program process: %w", err)
			}
		}
		s.cmd = exec.Command(self, args...)
		s.cmd.Stderr = os.Stderr
		if s.pipe, err = s.cmd.StdinPipe(); err != nil {
			return err
		}
		out, err := s.cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := s.cmd.Start(); err != nil {
			return err
		}
		s.stdin = bufio.NewWriter(s.pipe)
		s.stdout = bufio.NewReaderSize(out, 1<<20)
		if err := readMsg(s.stdout, &s.ready); err != nil {
			return fmt.Errorf("program set-up: %w", err)
		}
		if s.ready.Err != "" {
			return fmt.Errorf("program set-up: %s", s.ready.Err)
		}
		s.setups = append(s.setups, s.ready)
	}
	s.rankBuf = make([]float64, n)
	return nil
}

// stop ends the program process and waits for it.
func (s *benchRun) stop() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	if s.cmd.ProcessState == nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
	}
}

func (s *benchRun) finish() (finishReply, error) {
	var fin finishReply
	if err := writeMsg(s.stdin, request{Op: "finish"}); err != nil {
		return fin, err
	}
	if err := s.stdin.Flush(); err != nil {
		return fin, err
	}
	if err := readMsg(s.stdout, &fin); err != nil {
		return fin, err
	}
	if err := s.cmd.Wait(); err != nil {
		return fin, fmt.Errorf("program process: %w", err)
	}
	if fin.Err != "" {
		return fin, errors.New(fin.Err)
	}
	return fin, nil
}

// pair runs the i-th pair of ops; on bfs-queries it queries source i.
func (s *benchRun) pair(i int, measured bool) error {
	var refs []*bfsRef
	switch s.opt.workload {
	case wlBFSQueries:
		refs = []*bfsRef{&s.ref.bfs[i%len(s.ref.bfs)]}
	case wlBFSBatch:
		for j := range s.ref.bfs {
			refs = append(refs, &s.ref.bfs[j])
		}
	}
	var sources []uint32
	for _, r := range refs {
		sources = append(sources, r.source)
	}
	second := request{Sources: sources, OneWorker: true}
	if s.opt.traced {
		second = request{Sources: sources, Traced: true}
	}
	if err := s.op(request{Sources: sources}, refs, measured); err != nil {
		return err
	}
	return s.op(second, refs, measured)
}

// op sends one request, reads its answers and checks them. A protocol
// failure ends the run; an error or a wrong answer marks the op failed.
func (s *benchRun) op(req request, refs []*bfsRef, measured bool) error {
	s.nextID++
	req.Op, req.ID = "run", s.nextID
	req.Corrupt = req.ID == s.opt.corruptOp
	if err := writeMsg(s.stdin, req); err != nil {
		return err
	}
	if err := s.stdin.Flush(); err != nil {
		return err
	}
	var reply opReply
	if err := readMsg(s.stdout, &reply); err != nil {
		return err
	}
	rec := opRecord{oneWorker: req.OneWorker, traced: req.Traced, measured: measured,
		wall: time.Duration(reply.WallNs), alg: time.Duration(reply.AlgNs), answers: reply.Answers, stats: reply.Stats, plan: reply.Plan}
	s.rec.begin("bench.check", req.ID)
	checkErr, err := s.check(req, refs, &reply, &rec)
	s.rec.end()
	if err != nil {
		return err
	}
	if reply.Err != "" {
		checkErr = errors.New(reply.Err)
	}
	if checkErr != nil {
		rec.failed = true
		if len(s.checkErr) < 10 {
			s.checkErr = append(s.checkErr, fmt.Sprintf("op %d: %v", req.ID, checkErr))
		}
	}
	s.ops = append(s.ops, rec)
	return nil
}

// check reads the answers of one reply and checks every one of them against
// refs, the references of the request's BFS sources. It returns the first
// check failure, and separately any failure to read.
func (s *benchRun) check(req request, refs []*bfsRef, reply *opReply, rec *opRecord) (checkErr, readErr error) {
	if reply.Err != "" {
		return nil, nil
	}
	switch s.opt.workload {
	case wlPageRankInMem, wlPageRankStreamed:
		if reply.Answers != 1 {
			return nil, fmt.Errorf("op %d: %d PageRank answers", req.ID, reply.Answers)
		}
		if err := readArray(s.stdout, s.rankBuf); err != nil {
			return nil, err
		}
		rec.edges = prIterations * s.edges
		return checkRanks(s.rankBuf, s.ref.ranks), nil
	}
	if reply.Answers != len(refs) || len(reply.Hashes) != reply.Answers {
		return nil, fmt.Errorf("op %d: %d answers for %d sources", req.ID, reply.Answers, len(refs))
	}
	for _, r := range refs {
		rec.edges += r.edges
	}
	// The answers arrive in order; checkers take turns reading one and
	// check it while the next is read.
	workers := min(runtime.NumCPU(), len(refs))
	for len(s.parBufs) < workers {
		s.parBufs = append(s.parBufs, make([]int32, s.ref.n))
	}
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		rerr     error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(buf []int32) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= len(refs) || rerr != nil {
					mu.Unlock()
					return
				}
				next++
				if err := readArray(s.stdout, buf); err != nil {
					rerr = err
					mu.Unlock()
					return
				}
				mu.Unlock()
				if err := checkBFS(refs[i], reply.Hashes[i], buf, s.ref.in); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(s.parBufs[w])
	}
	wg.Wait()
	return firstErr, rerr
}

func countMeasured(ops []opRecord) int {
	c := 0
	for _, op := range ops {
		if op.measured {
			c++
		}
	}
	return c
}

// planCounts tallies the plan traces of the measured all-core ops, most
// frequent first.
func planCounts(ops []opRecord) string {
	counts := map[string]int{}
	for _, op := range ops {
		if op.measured && !op.oneWorker && !op.failed {
			counts[op.plan]++
		}
	}
	plans := make([]string, 0, len(counts))
	for p := range counts {
		plans = append(plans, p)
	}
	sort.Slice(plans, func(i, j int) bool { return counts[plans[i]] > counts[plans[j]] })
	var b strings.Builder
	for i, p := range plans {
		if i == 4 {
			fmt.Fprintf(&b, " ... %d more", len(plans)-i)
			break
		}
		fmt.Fprintf(&b, " [%s] x%d", p, counts[p])
	}
	return strings.TrimSpace(b.String())
}
