package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// referencesJSON records, per workload and seed, the hits1 and mrr the
// pipeline produced when the benchmark was written. Every workload has a
// primary seed and a holdout seed; a later change must reproduce both
// exactly (workers=1 and workers=N give identical results, so they do
// not depend on the machine).
//
//go:embed references.json
var referencesJSON []byte

type reference struct {
	Hits1 float64 `json:"hits1"`
	MRR   float64 `json:"mrr"`
}

var references = func() map[string]map[string]reference {
	var doc struct {
		Seeds map[string]map[string]reference `json:"seeds"`
	}
	if err := json.Unmarshal(referencesJSON, &doc); err != nil {
		panic(fmt.Sprintf("references.json: %v", err))
	}
	return doc.Seeds
}()

// checkReference compares a run's accuracy with the recorded reference
// for its workload and seed, or with the floor when none is recorded.
func checkReference(o options, hits1, mrr, floor float64) error {
	if ref, ok := references[o.workload][itoa(o.seed)]; ok {
		if hits1 != ref.Hits1 || mrr != ref.MRR {
			return fmt.Errorf("hits1/mrr %v/%v differ from the reference %v/%v for seed %d",
				hits1, mrr, ref.Hits1, ref.MRR, o.seed)
		}
		return nil
	}
	if hits1 < floor {
		return fmt.Errorf("hits1 %v below the floor %v", hits1, floor)
	}
	return nil
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
