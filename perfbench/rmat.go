package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
)

// The benchmark's inputs come from its own generator, so no change to the
// program can alter them: a seeded, directed RMAT graph with the Graph500
// quadrant probabilities (A=0.57, B=0.19, C=0.19, D=0.05) and a seeded
// random relabelling of the vertices, as Graph500's generator does.

const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19

	// genChunk is the number of edges drawn from one independently seeded
	// stream, so the edge list is the same whatever the number of
	// generating goroutines.
	genChunk = 1 << 16

	// edgeRecordBytes is the size of one record of the program's binary
	// edge format: source uint32, destination uint32, weight float32 bits,
	// little endian.
	edgeRecordBytes = 12
)

// splitmix64 is the PRNG of the generator: small, fast and seedable per
// chunk.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamSeed derives the seed of stream i of a run seeded with seed.
func streamSeed(seed int64, stream uint64) splitmix64 {
	s := splitmix64(uint64(seed) ^ 0x5eed5eed5eed5eed)
	s.next()
	s += splitmix64(stream * 0xd1b54a32d192ed03)
	return splitmix64(s.next())
}

// edgeList is the generated graph: parallel source and destination arrays.
type edgeList struct {
	n        int // vertex count: the largest endpoint + 1, as the binary format implies
	src, dst []uint32
}

func (el *edgeList) numEdges() int { return len(el.src) }

// generateRMAT draws 2^scale*edgeFactor edges over 2^scale vertices.
func generateRMAT(scale, edgeFactor int, seed int64, workers int) *edgeList {
	nv := 1 << scale
	m := nv * edgeFactor
	el := &edgeList{src: make([]uint32, m), dst: make([]uint32, m)}

	// Quadrant thresholds on a 32-bit uniform draw.
	threshold := func(p float64) uint32 { return uint32(p * (1 << 32)) }
	ta, tb, tc := threshold(rmatA), threshold(rmatA+rmatB), threshold(rmatA+rmatB+rmatC)

	// A seeded permutation of the vertex labels.
	perm := make([]uint32, nv)
	for i := range perm {
		perm[i] = uint32(i)
	}
	ps := streamSeed(seed, math.MaxUint64)
	for i := nv - 1; i > 0; i-- {
		j := int(ps.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}

	chunks := (m + genChunk - 1) / genChunk
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < chunks; c += workers {
				rng := streamSeed(seed, uint64(c))
				lo, hi := c*genChunk, min((c+1)*genChunk, m)
				for e := lo; e < hi; e++ {
					var s, d uint32
					var word uint64
					for bit := scale - 1; bit >= 0; bit-- {
						if (scale-1-bit)%2 == 0 {
							word = rng.next()
						} else {
							word >>= 32
						}
						r := uint32(word)
						switch {
						case r < ta:
						case r < tb:
							d |= 1 << bit
						case r < tc:
							s |= 1 << bit
						default:
							s |= 1 << bit
							d |= 1 << bit
						}
					}
					el.src[e], el.dst[e] = perm[s], perm[d]
				}
			}
		}(w)
	}
	wg.Wait()

	var maxID uint32
	for e := range el.src {
		maxID = max(maxID, el.src[e], el.dst[e])
	}
	el.n = int(maxID) + 1
	return el
}

// writeEdgeFile writes the edges in the program's binary edge format. The
// graph is unweighted, so every weight field is 0 (a compressed store then
// carries no weight plane).
func writeEdgeFile(path string, el *edgeList) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec [edgeRecordBytes]byte
	for e := range el.src {
		binary.LittleEndian.PutUint32(rec[0:], el.src[e])
		binary.LittleEndian.PutUint32(rec[4:], el.dst[e])
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return 0, fmt.Errorf("write edge file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write edge file: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("write edge file: %w", err)
	}
	return int64(el.numEdges()) * edgeRecordBytes, nil
}
