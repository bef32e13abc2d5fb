package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"unsafe"
)

// The client and the program process talk over the program process's
// standard input and output: one JSON line per message, and after an op's
// reply line its answers as raw little-endian arrays.

const (
	clientPid  = 1
	programPid = 2
)

// request is one message from the client.
type request struct {
	Op        string   `json:"op"` // "run" or "finish"
	ID        int      `json:"id"`
	OneWorker bool     `json:"one_worker,omitempty"`
	Sources   []uint32 `json:"sources,omitempty"`
	Traced    bool     `json:"traced,omitempty"`
	// Corrupt asks for one perturbed value in the first answer; only the
	// self-test sets it, to show that the checks count such an op failed.
	Corrupt bool `json:"corrupt,omitempty"`
}

// setupTimes is one timed set-up, in seconds.
type setupTimes struct {
	Total float64 `json:"total"`
	Load  float64 `json:"load,omitempty"`  // LoadBinary
	Prep  float64 `json:"prep,omitempty"`  // Prepare
	Build float64 `json:"build,omitempty"` // oocore.BuildStore
	Open  float64 `json:"open,omitempty"`  // OpenStore
}

// readyReply follows the program process's set-up.
type readyReply struct {
	Setup      setupTimes `json:"setup"`
	PeakRSSKiB int64      `json:"peak_rss_kib"` // after the set-up
	Vertices   int        `json:"vertices"`
	StoreBytes int64      `json:"store_bytes,omitempty"`
	Budget     int64      `json:"budget,omitempty"`
	Err        string     `json:"err,omitempty"`
}

// opStats are the per-layer counts of a traced op.
type opStats struct {
	Reads       int64   `json:"reads"`
	BytesRead   int64   `json:"bytes_read"`
	IOTimeNs    int64   `json:"io_time_ns"`
	IOWaitNs    int64   `json:"io_wait_ns"`
	PeakResid   int64   `json:"peak_resident"`
	GangLoops   int64   `json:"gang_loops"`
	Parks       int64   `json:"parks"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCCycles    uint32  `json:"gc_cycles"`
	IterationNs []int64 `json:"iteration_ns"`
}

// opReply answers one run request. Answers answers follow it: for
// PageRank the ranks as float64, for BFS each answer's parents as int32.
type opReply struct {
	ID      int      `json:"id"`
	Err     string   `json:"err,omitempty"`
	WallNs  int64    `json:"wall_ns"`
	AlgNs   int64    `json:"alg_ns"` // AlgorithmTime; the slowest group's for Batch
	Answers int      `json:"answers"`
	Hashes  []uint64 `json:"hashes,omitempty"` // levelsHash per BFS answer
	Plan    string   `json:"plan"`             // the first run's compressed plan trace
	Stats   *opStats `json:"stats,omitempty"`
}

// finishReply ends the conversation with the program process.
type finishReply struct {
	PeakRSSKiB      int64   `json:"peak_rss_kib"`
	DecodeNsPerEdge float64 `json:"decode_ns_per_edge"`
	DispatchUs      float64 `json:"dispatch_us"`
	LeaseUs         float64 `json:"lease_us"`
	Spans           []span  `json:"spans"`
	Err             string  `json:"err,omitempty"`
}

func writeMsg(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func readMsg(r *bufio.Reader, v any) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read message: %w", err)
	}
	return json.Unmarshal(line, v)
}

// asBytes views a numeric slice as its bytes (little endian on the
// platforms the benchmark runs on), so answers cross the pipe without a
// copy.
func asBytes[T int32 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// readArray fills dst from r.
func readArray[T int32 | float64](r io.Reader, dst []T) error {
	_, err := io.ReadFull(r, asBytes(dst))
	return err
}
