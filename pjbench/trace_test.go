package main

import (
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Parent: 1, Name: "e", Start: 150, End: 160}, // outside the parent: covers nothing
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if s := sum["root"]; s.N != 1 || s.MeanUS != 0.1 || s.SelfUS != 0.05 {
		t.Errorf("summary of root = %+v", s)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.nextOp()
	root := r.open("root", 0)
	r.close(root)
	var inner int
	r.within("outer", root, func() {
		done := r.nested("inner")
		done()
		inner = len(r.snapshot())
	})
	spans := r.snapshot()
	if len(spans) != 3 || inner != 3 {
		t.Fatalf("recorded %d spans", len(spans))
	}
	outer, in := spans[1], spans[2]
	if outer.Parent != root || in.Parent != outer.ID {
		t.Errorf("parents: outer %d (want %d), inner %d (want %d)", outer.Parent, root, in.Parent, outer.ID)
	}
	if in.Op != spans[0].Op || outer.Op != spans[0].Op {
		t.Errorf("children do not share the root's operation id")
	}
	if in.Start < outer.Start || in.End > outer.End {
		t.Errorf("inner span %+v not inside outer %+v", in, outer)
	}
	if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), spans); err != nil {
		t.Fatal(err)
	}
}
