package main

import (
	"fmt"
	"time"
)

// endToEnd fills the five end-to-end metrics from the measured ops. It
// reports whether both the all-core and the one-worker ops have a
// successful measured sample.
func (s *benchRun) endToEnd(fin finishReply, m map[string]metric, say func(string, ...any)) bool {
	var all, one []float64
	var answers int
	var allWall time.Duration
	for _, op := range s.ops {
		if !op.measured || op.failed {
			continue
		}
		if op.oneWorker {
			one = append(one, ms(op.wall))
			continue
		}
		all = append(all, ms(op.wall))
		answers += op.answers
		allWall += op.wall
	}
	var setups, setupPeaks []float64
	for _, r := range s.setups {
		setups, setupPeaks = append(setups, r.Setup.Total), append(setupPeaks, float64(r.PeakRSSKiB)/1024)
	}
	// The serving process's peak covers its set-up and the ops.
	peak := float64(fin.PeakRSSKiB) / 1024
	for _, p := range setupPeaks {
		peak = max(peak, p)
	}
	say("set-ups s: %s; peak MiB %s", spread(setups), spread(setupPeaks))
	say("all-core ops ms: %s", spread(all))
	say("one-worker ops ms: %s", spread(one))
	m["setup_s"] = metric{median(setups), "s"}
	m["op_p50_ms"] = metric{median(all), "ms"}
	m["op_1w_p50_ms"] = metric{median(one), "ms"}
	m["answers_per_s"] = metric{float64(answers) / allWall.Seconds(), "1/s"}
	m["peak_rss_mb"] = metric{peak, "MiB"}
	return len(all) > 0 && len(one) > 0
}

// perLayer fills the per-layer metrics from the traced ops, the set-ups
// and the microbenchmarks. A metric of a layer the workload does not pass
// through reads 0. It reports whether both the traced and the untraced ops
// have a successful measured sample.
func (s *benchRun) perLayer(fin finishReply, m map[string]metric, say func(string, ...any)) bool {
	var load, prep, build, open []float64
	for _, r := range s.setups {
		st := r.Setup
		load, prep = append(load, st.Load), append(prep, st.Prep)
		build, open = append(build, st.Build), append(open, st.Open)
	}
	wl := s.opt.workload
	gridPrep, adjPrep := 0.0, 0.0
	switch wl {
	case wlPageRankInMem:
		gridPrep = median(prep)
	case wlBFSQueries, wlBFSBatch:
		adjPrep = median(prep)
	}

	var (
		readMB, reads, ioMs, ioWaitMs, algMs, outsideMs, gang, parks, allocMB, gcs, iters []float64
		peakResident                                                                      int64
		edges                                                                             int64
		algSum                                                                            time.Duration
		traced, untraced                                                                  []float64
	)
	for _, op := range s.ops {
		if !op.measured || op.failed || op.oneWorker {
			continue
		}
		if !op.traced {
			untraced = append(untraced, ms(op.wall))
			continue
		}
		traced = append(traced, ms(op.wall))
		st := op.stats
		readMB = append(readMB, float64(st.BytesRead)/mib)
		reads = append(reads, float64(st.Reads))
		ioMs = append(ioMs, ms(time.Duration(st.IOTimeNs)))
		ioWaitMs = append(ioWaitMs, ms(time.Duration(st.IOWaitNs)))
		peakResident = max(peakResident, st.PeakResid)
		algMs = append(algMs, ms(op.alg))
		outsideMs = append(outsideMs, ms(op.wall-op.alg))
		gang = append(gang, float64(st.GangLoops))
		parks = append(parks, float64(st.Parks))
		allocMB = append(allocMB, float64(st.AllocBytes)/mib)
		gcs = append(gcs, float64(st.GCCycles))
		for _, it := range st.IterationNs {
			iters = append(iters, ms(time.Duration(it)))
		}
		edges += op.edges
		algSum += op.alg
	}
	batch := func(v float64) float64 {
		if wl == wlBFSBatch {
			return v
		}
		return 0
	}

	m["storage.load_s"] = metric{median(load), "s"}
	m["prep.grid_s"] = metric{gridPrep, "s"}
	m["prep.adjacency_s"] = metric{adjPrep, "s"}
	m["oocore.build_s"] = metric{median(build), "s"}
	m["oocore.open_s"] = metric{median(open), "s"}
	m["oocore.store_mb"] = metric{float64(s.ready.StoreBytes) / mib, "MiB"}
	m["oocore.read_mb_per_op"] = metric{median(readMB), "MiB"}
	m["oocore.reads_per_op"] = metric{median(reads), "count"}
	m["oocore.io_ms_per_op"] = metric{median(ioMs), "ms"}
	m["oocore.io_wait_ms_per_op"] = metric{median(ioWaitMs), "ms"}
	m["oocore.peak_resident_mb"] = metric{float64(peakResident) / mib, "MiB"}
	m["graph.decode_ns_per_edge"] = metric{fin.DecodeNsPerEdge, "ns"}
	m["core.algorithm_ms_per_op"] = metric{median(algMs), "ms"}
	m["core.outside_algorithm_ms_per_op"] = metric{median(outsideMs), "ms"}
	m["core.iteration_p50_ms"] = metric{median(iters), "ms"}
	m["core.edges_per_s"] = metric{float64(edges) / algSum.Seconds(), "edges/s"}
	m["core.batch_sweep_ms"] = metric{batch(median(algMs)), "ms"}
	m["core.batch_outside_sweep_ms"] = metric{batch(median(outsideMs)), "ms"}
	m["sched.gang_loops_per_op"] = metric{median(gang), "count"}
	m["sched.parks_per_op"] = metric{median(parks), "count"}
	m["sched.dispatch_us"] = metric{fin.DispatchUs, "us"}
	m["sched.lease_us"] = metric{fin.LeaseUs, "us"}
	m["process.alloc_mb_per_op"] = metric{median(allocMB), "MiB"}
	m["process.gc_cycles_per_op"] = metric{median(gcs), "count"}

	tp, up := median(traced), median(untraced)
	say("trace overhead: %+.2f%% (all-core op p50 traced %.2f ms over %d ops, untraced %.2f ms over %d ops)",
		100*(tp/up-1), tp, len(traced), up, len(untraced))
	return len(traced) > 0 && len(untraced) > 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spread renders a sample as its count, minimum, median and maximum.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g max=%.4g", len(xs), lo, median(xs), hi)
}
