// Command perfbench is the repository benchmark. One client drives the
// program in a closed loop: it sends one op, waits for the answer, checks it
// against its own reference computation, then sends the next. The program
// runs in a process of its own that holds no reference data.
//
//	bash perfbench/run.sh --workload pagerank-inmem --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; see README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

const (
	wlPageRankInMem    = "pagerank-inmem"
	wlPageRankStreamed = "pagerank-streamed"
	wlBFSQueries       = "bfs-queries"
	wlBFSBatch         = "bfs-batch"
)

var workloads = []string{wlPageRankInMem, wlPageRankStreamed, wlBFSQueries, wlBFSBatch}

func main() {
	var (
		opt      options
		traced   int
		selfTest bool
		prog     programArgs
		isProg   bool
	)
	flag.StringVar(&opt.workload, "workload", "", "workload: pagerank-inmem, pagerank-streamed, bfs-queries or bfs-batch")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for the generated inputs and trace files")
	flag.BoolVar(&selfTest, "selftest", false, "run every workload at a small scale with one perturbed answer each and check that it is counted as failed")
	flag.BoolVar(&isProg, "program", false, "internal: run as the program process")
	flag.StringVar(&prog.edgeFile, "edges", "", "internal: edge file of the program process")
	flag.StringVar(&prog.storeFile, "store", "", "internal: store file of the program process")
	flag.IntVar(&prog.vertices, "vertices", 0, "internal: vertex count of the edge file")
	flag.Parse()
	opt.traced, opt.scale = traced == 1, defaultScale

	var err error
	switch {
	case isProg:
		prog.workload, prog.traced = opt.workload, opt.traced
		err = runProgram(prog)
	case selfTest:
		err = runSelfTest(opt)
	default:
		err = runBenchmark(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
