package main

import (
	"slices"
	"strings"
	"testing"
)

// A small directed graph: 0->1, 0->2, 0->4, 1->3, 2->3, 3->0, 4->0, and
// 5 unreachable from 0 apart from 5->0. From source 0, vertex 3 sits at
// level 2 and vertex 4 at level 1 with no edge 4->3, so a parent 4 for
// vertex 3 passes the level rule and fails only the edge rule.
func smallGraph() *edgeList {
	return &edgeList{n: 6, src: []uint32{0, 0, 0, 1, 2, 3, 4, 5}, dst: []uint32{1, 2, 4, 3, 3, 0, 0, 0}}
}

func TestCheckBFS(t *testing.T) {
	out := buildOutCSR(smallGraph())
	in := transpose(out)
	refs, err := bfsReferences(out, 0, []uint32{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refs[0]
	level := []int32{0, 1, 1, 2, 1, -1}
	good := [][]int32{{0, 0, 0, 1, 0, -1}, {0, 0, 0, 2, 0, -1}}
	for _, parent := range good {
		if err := checkBFS(ref, levelsHash(level), parent, in); err != nil {
			t.Errorf("valid answer %v rejected: %v", parent, err)
		}
	}
	bad := map[string]struct {
		parent []int32
		reason string
	}{
		"parent edge missing":         {[]int32{0, 0, 0, 4, 0, -1}, "does not exist"},
		"parent not one level closer": {[]int32{0, 0, 0, 0, 0, -1}, "at level 0"},
		"parent on the same level":    {[]int32{0, 2, 0, 1, 0, -1}, "at level 1"},
		"unreached with a parent":     {[]int32{0, 0, 0, 1, 0, 0}, "unreached vertex"},
		"source not its own root":     {[]int32{-1, 0, 0, 1, 0, -1}, "source has parent"},
	}
	for name, c := range bad {
		err := checkBFS(ref, levelsHash(level), c.parent, in)
		if err == nil {
			t.Errorf("%s: accepted %v", name, c.parent)
		} else if !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: rejected for another reason: %v", name, err)
		}
	}
	wrong := slices.Clone(level)
	wrong[3]++
	if err := checkBFS(ref, levelsHash(wrong), good[0], in); err == nil {
		t.Error("a perturbed level was accepted")
	}
}

func TestCheckRanks(t *testing.T) {
	out := buildOutCSR(smallGraph())
	want := pageRankReference(out)
	got := slices.Clone(want)
	got[2] *= 1 + 1e-12
	if err := checkRanks(got, want); err != nil {
		t.Errorf("a reordering-sized difference was rejected: %v", err)
	}
	got[2] *= 1 + 1e-6
	if err := checkRanks(got, want); err == nil {
		t.Error("a perturbed rank was accepted")
	}
}

func TestGenerateRMATIsSeeded(t *testing.T) {
	a := generateRMAT(10, 16, 7, 1)
	b := generateRMAT(10, 16, 7, 3)
	c := generateRMAT(10, 16, 8, 2)
	if a.n != b.n || !slices.Equal(a.src, b.src) || !slices.Equal(a.dst, b.dst) {
		t.Error("the same seed gave different graphs for different worker counts")
	}
	if slices.Equal(a.src, c.src) {
		t.Error("different seeds gave the same graph")
	}
}
