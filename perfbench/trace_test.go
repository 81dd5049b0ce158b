package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestSelfTime checks self time = duration minus the union of the
// children's intervals, clipped to the parent: overlapping children count
// once, grandchildren only count against their own parent.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[uint64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.End(nilTracer.Begin(0, "x", 0)) // no-op, no panic

	tr := newTracer()
	root := tr.Begin(7, "root", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.End(tr.Begin(7, "child", root.ID))
		}()
	}
	wg.Wait()
	tr.End(root)
	sum := tr.Summary()
	if sum["child"].Count != 8 || sum["root"].Count != 1 {
		t.Fatalf("summary counts: child %d root %d", sum["child"].Count, sum["root"].Count)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteFile(path, map[string]string{"name": "test"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		lines++
		if lines == 1 {
			continue // the stamp
		}
		var s struct {
			Span
			Self int64 `json:"self_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Run != 7 || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Fatalf("bad span line %s", sc.Text())
		}
	}
	if lines != 10 {
		t.Fatalf("%d lines, want stamp + 9 spans", lines)
	}
}
