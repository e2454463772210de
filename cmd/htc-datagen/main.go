// Command htc-datagen generates the synthetic benchmark datasets of
// internal/datasets (stand-ins for the paper's five network pairs, each
// generator documenting the real dataset it mimics) and writes
// them in the library's text format, plus a ground-truth file consumable
// by htc-align.
//
// Usage:
//
//	htc-datagen -dataset allmovie|douban|flickr|econ|bn [-n 0] [-seed 1]
//	            [-remove 0.2] [-out DIR] [-format htc-graph|edgelist|json|adjlist]
//	htc-datagen -stats            # print the Table I statistics
//
// For econ and bn (single networks), -remove controls the edge-removal
// ratio used to derive the target, as in the paper's robustness study.
// -out is created, with any missing parents, if it does not exist.
//
// -format selects the output writer (default htc-graph). The edgelist
// format carries no attributes, so it only suits the attribute-free
// datasets (econ, bn); json and adjlist carry everything. The truth file
// is written as ID-keyed pairs in every case, consumable by htc-align
// -truth whatever the graph format.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	htc "github.com/htc-align/htc"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/experiments"
	"github.com/htc-align/htc/internal/ingest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("htc-datagen: ")

	dataset := flag.String("dataset", "", "dataset: allmovie, douban, flickr, econ, bn")
	n := flag.Int("n", 0, "size override (0 = default scale)")
	seed := flag.Int64("seed", 1, "random seed")
	remove := flag.Float64("remove", 0.2, "edge-removal ratio for econ/bn targets")
	out := flag.String("out", ".", "output directory")
	format := flag.String("format", "htc-graph", "output format: htc-graph, edgelist, json, adjlist")
	stats := flag.Bool("stats", false, "print Table I statistics and exit")
	flag.Parse()

	if *stats {
		_, text := experiments.Table1(experiments.Options{Seed: *seed})
		fmt.Print(text)
		return
	}

	var pair *datasets.Pair
	switch *dataset {
	case "allmovie":
		pair = htc.AllmovieImdb(*n, *seed)
	case "douban":
		pair = htc.Douban(*n, *seed)
	case "flickr":
		pair = htc.FlickrMyspace(*n, *seed)
	case "econ", "bn":
		var src *htc.Graph
		if *dataset == "econ" {
			src = htc.Econ(*n, *seed)
		} else {
			src = htc.BN(*n, *seed)
		}
		target, truth := htc.MakeTarget(src, *remove, *seed+1)
		pair = &datasets.Pair{Name: *dataset, Source: src, Target: target, Truth: truth}
	case "":
		flag.Usage()
		os.Exit(2)
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	if err := writePair(*out, *dataset, *format, pair); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s pair (%s): source %v, target %v, %d anchors\n",
		pair.Name, *format, pair.Source, pair.Target, pair.Truth.NumAnchors())
}

// writePair writes the pair as <name>_source.<ext>, <name>_target.<ext>
// and <name>_truth.txt under dir, creating dir and any missing parents
// first.
func writePair(dir, name, format string, pair *datasets.Pair) error {
	ext := map[string]string{"htc-graph": ".graph", "edgelist": ".edges", "json": ".json", "adjlist": ".adj"}[format]
	if ext == "" {
		return fmt.Errorf("unknown output format %q (use htc-graph, edgelist, json or adjlist)", format)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, name+"_source"+ext), func(f *os.File) error {
		return htc.WriteGraphAs(f, pair.Source, nil, format)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, name+"_target"+ext), func(f *os.File) error {
		return htc.WriteGraphAs(f, pair.Target, nil, format)
	}); err != nil {
		return err
	}
	ns, nt := pair.Source.N(), pair.Target.N()
	return writeFile(filepath.Join(dir, name+"_truth.txt"), func(f *os.File) error {
		return ingest.WriteTruth(f, pair.Truth, ingest.Identity(ns), ingest.Identity(nt))
	})
}

// writeFile creates path and fills it through write, reporting the first
// error of either step or of closing the file.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
