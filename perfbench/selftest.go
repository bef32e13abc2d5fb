package main

import (
	"fmt"
	"strings"
)

// selfTestScale keeps the self-test to a few seconds per workload.
const selfTestScale = 12

// runSelfTest runs every workload at a small scale and has the program
// process perturb one answer of the first measured op: one rank on the
// PageRank workloads, one level on the BFS workloads. Each run must count
// exactly that op as failed and report the run as not correct.
func runSelfTest(opt options) error {
	for _, wl := range workloads {
		o := opt
		o.workload, o.scale, o.seconds, o.traced = wl, selfTestScale, 1, false
		o.corruptOp = 2*shapes[wl].warmupPairs + 1
		res, err := runWorkload(o)
		if err != nil {
			return fmt.Errorf("selftest %s: %w", wl, err)
		}
		var reason string
		if len(res.failures) > 0 {
			reason = res.failures[0]
		}
		if res.result.Failed != 1 || !strings.HasPrefix(reason, fmt.Sprintf("op %d:", o.corruptOp)) {
			return fmt.Errorf("selftest %s: %d of %d ops failed (%s), want exactly op %d", wl, res.result.Failed, res.result.Attempted, reason, o.corruptOp)
		}
		if res.result.Correct {
			return fmt.Errorf("selftest %s: the run with a perturbed op reported correct", wl)
		}
		fmt.Printf("selftest %s: ok, the perturbed op failed, %d others passed and the run reported not correct: %s\n", wl, res.result.Attempted-1, reason)
	}
	return nil
}
