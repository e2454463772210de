package main

import (
	"path/filepath"
	"testing"

	htc "github.com/htc-align/htc"
	"github.com/htc-align/htc/internal/datasets"
)

// TestWritePairCreatesNestedDir: -out may name a directory that does not
// exist yet, several levels deep; the written pair loads back intact.
func TestWritePairCreatesNestedDir(t *testing.T) {
	src := htc.Econ(60, 1)
	tgt, truth := htc.MakeTarget(src, 0.1, 2)
	pair := &datasets.Pair{Name: "econ", Source: src, Target: tgt, Truth: truth}
	dir := filepath.Join(t.TempDir(), "a", "b", "c")
	if err := writePair(dir, "econ", "htc-graph", pair); err != nil {
		t.Fatal(err)
	}
	loaded, err := htc.LoadPair(filepath.Join(dir, "econ_source.graph"), filepath.Join(dir, "econ_target.graph"), htc.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Source.NumEdges() != src.NumEdges() || loaded.Target.NumEdges() != tgt.NumEdges() {
		t.Fatalf("edges: got %d/%d, want %d/%d", loaded.Source.NumEdges(), loaded.Target.NumEdges(), src.NumEdges(), tgt.NumEdges())
	}
	got, err := htc.LoadTruthFile(filepath.Join(dir, "econ_truth.txt"), loaded.SourceIDs, loaded.TargetIDs)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAnchors() != truth.NumAnchors() {
		t.Fatalf("anchors: got %d, want %d", got.NumAnchors(), truth.NumAnchors())
	}
}

// TestWritePairRejectsUnknownFormat: a bad -format fails before anything
// is created.
func TestWritePairRejectsUnknownFormat(t *testing.T) {
	src := htc.Econ(60, 1)
	tgt, truth := htc.MakeTarget(src, 0.1, 2)
	pair := &datasets.Pair{Name: "econ", Source: src, Target: tgt, Truth: truth}
	if err := writePair(filepath.Join(t.TempDir(), "x"), "econ", "csv", pair); err == nil {
		t.Fatal("unknown format accepted")
	}
}
