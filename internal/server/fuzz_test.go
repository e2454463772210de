package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzMaxNodes is the node cap the fuzz targets admit graphs under — a
// small server, so every accepted graph stays cheap to check.
const fuzzMaxNodes = 64

// seedFiles adds every testdata file matching pattern to the corpus.
func seedFiles(f *testing.F, pattern string) {
	paths, err := filepath.Glob(filepath.Join("testdata", pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed files match %s: %v", pattern, err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
}

// fuzzStore holds the dataset_put.json upload under the id the
// dataset-backed request fixtures name.
func fuzzStore(f *testing.F) *datasetStore {
	blob, err := os.ReadFile(filepath.Join("testdata", "dataset_put.json"))
	if err != nil {
		f.Fatal(err)
	}
	var up DatasetUpload
	if err := decodeJSON(bytes.NewReader(blob), &up); err != nil {
		f.Fatal(err)
	}
	ds, err := buildDataset("bridge-pair", &up, fuzzMaxNodes, time.Time{})
	if err != nil {
		f.Fatal(err)
	}
	store := newDatasetStore(2)
	store.put(ds)
	return store
}

// FuzzAlignRequest drives the admission path of POST /v1/align and
// POST /v1/sweep: decode, validate against a small node cap and an
// upload store, the shape checks, and the result-cache key. Admission
// must reject or accept, never panic, and an accepted request must have
// a graph pair within the cap and a computable cache key.
func FuzzAlignRequest(f *testing.F) {
	seedFiles(f, "*_request.json")
	f.Add([]byte(`{"source":{"nodes":3,"edges":[[0,1],[1,2]]},"target":{"nodes":3,"edges":[[0,2]]},"truth":[0,-1,2]}`))
	f.Add([]byte(`{"source":{"nodes":2,"ids":["a","b"]},"target":{"nodes":2,"ids":["x","y"]},"truth_pairs":[["a","y"]]}`))
	f.Add([]byte(`{"dataset":"econ","configs":[{"similarity":"ann","ann_bits":4},{"similarity":"topk","candidate_k":3}]}`))
	store := fuzzStore(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req AlignRequest
		if decodeJSON(bytes.NewReader(data), &req) != nil {
			return
		}
		if req.validate(fuzzMaxNodes, store) != nil {
			return
		}
		if p := req.builtPair; p != nil {
			if req.upload == nil && (p.Source.N() > fuzzMaxNodes || p.Target.N() > fuzzMaxNodes) {
				t.Fatalf("admitted %d/%d nodes over the cap %d", p.Source.N(), p.Target.N(), fuzzMaxNodes)
			}
			if len(p.Truth) != 0 && len(p.Truth) != p.Source.N() {
				t.Fatalf("truth has %d entries for %d source nodes", len(p.Truth), p.Source.N())
			}
			for s, tt := range p.Truth {
				if tt < -1 || tt >= p.Target.N() {
					t.Fatalf("truth[%d] = %d outside %d target nodes", s, tt, p.Target.N())
				}
			}
		}
		single, sweep := req.validateSingle() == nil, req.validateSweep() == nil
		if single && sweep {
			t.Fatal("request admitted as both an align and a sweep")
		}
		if single {
			if _, err := cacheKey(&req); err != nil {
				t.Fatalf("cache key of an admitted align request: %v", err)
			}
		}
		if sweep {
			for i, cfg := range req.Configs {
				if _, err := cacheKey(req.singleRequest(cfg)); err != nil {
					t.Fatalf("cache key of admitted sweep config %d: %v", i, err)
				}
			}
		}
	})
}

// FuzzRefineRequest drives the admission path of POST /v1/refine:
// decode and validate must reject or accept, never panic, and an
// accepted request resolves to an iteration count within the cap.
func FuzzRefineRequest(f *testing.F) {
	seedFiles(f, "refine_*_request.json")
	f.Add([]byte(`{"job":"job-1","refine_iters":64,"refine_token_k":2}`))
	f.Add([]byte(`{"dataset":"d","matching":[["a","b"]],"hits_at":[1,1,2]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RefineRequest
		if decodeJSON(bytes.NewReader(data), &req) != nil {
			return
		}
		if req.validate() != nil {
			return
		}
		if it := req.iters(); it < 1 || it > MaxRefineIters {
			t.Fatalf("admitted request runs %d iterations, want 1..%d", it, MaxRefineIters)
		}
	})
}

// FuzzBuildDataset drives PUT /v1/datasets/{id} ingestion under a small
// node cap: an upload body must be rejected or stored, never panic, and
// a stored dataset must agree with its own metadata.
func FuzzBuildDataset(f *testing.F) {
	seedFiles(f, "dataset_put.json")
	f.Add([]byte(`{"format":"adjlist","source":"a b c\nb c\n","target":"x y\ny z\n","truth":"a x\n"}`))
	f.Add([]byte(`{"format":"json","source":"{\"nodes\":2,\"edges\":[[0,1]],\"ids\":[\"a\",\"b\"]}","target":"{\"nodes\":1}"}`))
	f.Add([]byte(`{"source":"a b\n","target":"x y\n","strict":true,"truth":"a q\n"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var up DatasetUpload
		if decodeJSON(bytes.NewReader(data), &up) != nil {
			return
		}
		ds, err := buildDataset("fuzz", &up, fuzzMaxNodes, time.Time{})
		if err != nil {
			return
		}
		p := ds.pair
		if p.Source.N() > fuzzMaxNodes || p.Target.N() > fuzzMaxNodes {
			t.Fatalf("stored %d/%d nodes over the cap %d", p.Source.N(), p.Target.N(), fuzzMaxNodes)
		}
		if p.SourceIDs.Len() != p.Source.N() || p.TargetIDs.Len() != p.Target.N() {
			t.Fatalf("id maps %d/%d for %d/%d nodes", p.SourceIDs.Len(), p.TargetIDs.Len(), p.Source.N(), p.Target.N())
		}
		if ds.info.Source.Nodes != p.Source.N() || ds.info.Target.Nodes != p.Target.N() {
			t.Fatalf("metadata says %d/%d nodes, pair has %d/%d", ds.info.Source.Nodes, ds.info.Target.Nodes, p.Source.N(), p.Target.N())
		}
		if ds.info.Anchors != p.Truth.NumAnchors() {
			t.Fatalf("metadata says %d anchors, truth has %d", ds.info.Anchors, p.Truth.NumAnchors())
		}
	})
}
