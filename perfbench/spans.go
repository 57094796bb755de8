package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"graf/internal/obs"
)

// spanIndex answers self-time and parent/child queries over one run's
// spans: the benchmark's own (around its calls into each layer) merged with
// the spans the program's existing tracer emits.
type spanIndex struct {
	spans    []obs.TraceSpan
	children map[[2]uint64][]int // (trace, span) -> child indexes
	byName   map[string][]int
}

func newSpanIndex(spans []obs.TraceSpan) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[[2]uint64][]int{}, byName: map[string][]int{}}
	for i, s := range spans {
		if s.Parent != 0 {
			k := [2]uint64{s.Trace, s.Parent}
			ix.children[k] = append(ix.children[k], i)
		}
		ix.byName[s.Name] = append(ix.byName[s.Name], i)
	}
	return ix
}

// selfNS is a span's duration minus the part of its interval that its
// child spans cover (children may overlap when they ran on several
// goroutines, so the union is subtracted, not the sum).
func (ix *spanIndex) selfNS(i int) int64 {
	s := ix.spans[i]
	end := s.StartNS + s.DurNS
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range ix.children[[2]uint64{s.Trace, s.Span}] {
		cs := ix.spans[c]
		a, b := max(cs.StartNS, s.StartNS), min(cs.StartNS+cs.DurNS, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.DurNS - covered
}

// childNamed returns the first child of span i with the given name, or -1.
func (ix *spanIndex) childNamed(i int, name string) int {
	s := ix.spans[i]
	for _, c := range ix.children[[2]uint64{s.Trace, s.Span}] {
		if ix.spans[c].Name == name {
			return c
		}
	}
	return -1
}

// durMS returns the durations of every span with the given name, in ms.
func (ix *spanIndex) durMS(name string) []float64 {
	var out []float64
	for _, i := range ix.byName[name] {
		out = append(out, float64(ix.spans[i].DurNS)/1e6)
	}
	return out
}

func (ix *spanIndex) totalNS(name string) int64 {
	var t int64
	for _, i := range ix.byName[name] {
		t += ix.spans[i].DurNS
	}
	return t
}

// writeTable prints one row per span name: count, p50/p99 duration, and
// total self time with its share of all self time.
func (ix *spanIndex) writeTable(w io.Writer) {
	type row struct {
		name     string
		n        int
		p50, p99 float64
		self     int64
	}
	var rows []row
	var all int64
	for _, name := range sortedKeys(ix.byName) {
		r := row{name: name, n: len(ix.byName[name])}
		d := ix.durMS(name)
		r.p50, r.p99 = quantile(d, 0.5), quantile(d, 0.99)
		for _, i := range ix.byName[name] {
			r.self += ix.selfNS(i)
		}
		all += r.self
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%-28s %8s %10s %10s %11s %6s\n", "span", "count", "p50_ms", "p99_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %10.3f %10.3f %11.1f %6.1f\n",
			r.name, r.n, r.p50, r.p99, float64(r.self)/1e6, 100*ratio(float64(r.self), float64(all)))
	}
}

// writeChrome exports the spans as a Chrome trace_event file.
func writeChrome(path string, spans []obs.TraceSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := obs.ChromeTrace(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
