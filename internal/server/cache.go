package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/htc-align/htc/internal/core"
)

// cacheKey derives the content hash that identifies an alignment: the
// resolved request — graphs (or dataset coordinates), normalised pipeline
// config and evaluation cutoffs — serialised canonically and hashed.
// Requests that differ only in fields the run ignores (an unset epoch
// count vs the explicit default) map to the same key. Workers is excluded:
// parallelism never changes the result, so requests differing only in
// their CPU budget share one cache entry.
func cacheKey(req *AlignRequest) (string, error) {
	canonical := struct {
		Dataset  string      `json:"dataset,omitempty"`
		Upload   string      `json:"upload,omitempty"`
		N        int         `json:"n,omitempty"`
		DataSeed int64       `json:"data_seed,omitempty"`
		Remove   float64     `json:"remove,omitempty"`
		Source   *GraphSpec  `json:"source,omitempty"`
		Target   *GraphSpec  `json:"target,omitempty"`
		Truth    []int       `json:"truth,omitempty"`
		Config   interface{} `json:"config"`
		HitsAt   []int       `json:"hits_at"`
	}{
		Dataset:  req.Dataset,
		N:        req.N,
		DataSeed: req.DataSeed,
		Remove:   canonicalRemove(req),
		Source:   req.Source,
		Target:   req.Target,
		Truth:    req.Truth,
		Config:   canonicalConfig(req.Config),
		HitsAt:   req.cutoffs(),
	}
	if req.upload != nil {
		// An uploaded dataset's cache identity is its content (graphs +
		// truth), not its mutable id: re-uploading the same data under
		// another name, or re-using an id for new data, both do the
		// right thing.
		canonical.Dataset = ""
		canonical.Upload = req.upload.contentHash()
	}
	blob, err := json.Marshal(canonical)
	if err != nil {
		return "", fmt.Errorf("hashing request: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalConfig normalises a pipeline config for hashing and strips the
// fields that cannot influence the result (currently the worker budget).
func canonicalConfig(cfg core.Config) core.Config {
	cfg = cfg.WithDefaults()
	//lint:allow knobcover workers is a pure performance knob: results are bit-identical at every worker count
	cfg.Workers = 0
	return cfg
}

// resultCache is a bounded LRU from content hash to completed
// AlignResult. Alignment is deterministic given the request (every
// random choice is seed-driven), so cached results never go stale.
type resultCache struct{ *lru[string, *AlignResult] }

func newResultCache(capacity int) *resultCache {
	return &resultCache{newLRU[string, *AlignResult](capacity, 128)}
}

// get returns a copy of the cached result flagged Cached, or nil.
func (c *resultCache) get(key string) *AlignResult {
	res, ok := c.lru.get(key)
	if !ok {
		return nil
	}
	cp := *res
	cp.Cached = true
	return &cp
}

// put stores a result, evicting the least recently used entry when full.
func (c *resultCache) put(key string, res *AlignResult) { c.lru.put(key, res, false) }

// refineCache is a bounded LRU from a refine request's content identity
// (input matching + graphs + knobs) to its completed RefineResult.
// Refinement is deterministic given its input, so entries never go
// stale.
type refineCache struct{ *lru[string, *RefineResult] }

func newRefineCache(capacity int) *refineCache {
	return &refineCache{newLRU[string, *RefineResult](capacity, 128)}
}

// get returns a copy of the cached result flagged Cached, or nil.
func (c *refineCache) get(key string) *RefineResult {
	res, ok := c.lru.get(key)
	if !ok {
		return nil
	}
	cp := *res
	cp.Cached = true
	return &cp
}

// put stores a result, evicting the least recently used entry when full.
func (c *refineCache) put(key string, res *RefineResult) { c.lru.put(key, res, false) }

// preparedCache is a bounded LRU from a graph pair's content hash
// (core.PairHash) to its prepared pipeline artifacts, so separate jobs on
// the same pair — a client re-submitting with new hyperparameters, a
// sweep following a single align — share one orbit-counting pass and one
// set of Laplacians. A core.Prepared is immutable input-wise and
// concurrency-safe, so handing the same instance to concurrent jobs is
// sound; it only ever accretes more memoised artifacts. The cache is
// kept much smaller than the result cache because each entry pins whole
// graphs plus per-orbit sparse matrices.
type preparedCache struct{ *lru[string, *core.Prepared] }

func newPreparedCache(capacity int) *preparedCache {
	return &preparedCache{newLRU[string, *core.Prepared](capacity, 8)}
}

// get returns the cached prepared pair, or nil.
func (c *preparedCache) get(key string) *core.Prepared {
	prep, _ := c.lru.get(key)
	return prep
}

// put stores a prepared pair, evicting the least recently used entry
// when full. A concurrent duplicate (two jobs preparing the same pair at
// once) keeps the first stored instance so later jobs converge on one.
func (c *preparedCache) put(key string, prep *core.Prepared) { c.lru.put(key, prep, true) }
