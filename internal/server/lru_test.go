package server

import (
	"reflect"
	"testing"
)

func TestLRU(t *testing.T) {
	c := newLRU[string, int](0, 2)
	if c.cap != 2 {
		t.Fatalf("cap = %d, want the fallback 2", c.cap)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	if existed, evicted := c.put("a", 1, false); existed || evicted != 0 {
		t.Fatalf("first put: existed=%v evicted=%d", existed, evicted)
	}
	c.put("b", 2, false)
	if existed, _ := c.put("a", 10, false); !existed {
		t.Fatal("re-put of a not reported as existing")
	}
	if existed, _ := c.put("b", 20, true); !existed {
		t.Fatal("keepFirst re-put of b not reported as existing")
	}
	if v, _ := c.get("a"); v != 10 {
		t.Fatalf("a = %d, want the replaced value 10", v)
	}
	if v, _ := c.get("b"); v != 2 {
		t.Fatalf("b = %d, want the first value 2 under keepFirst", v)
	}
	// b was touched last, so a is the eviction victim.
	if _, evicted := c.put("c", 3, false); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if got := c.values(); !reflect.DeepEqual(got, []int{3, 2}) {
		t.Fatalf("values = %v, want most recent first [3 2]", got)
	}
	if !c.delete("b") || c.delete("b") {
		t.Fatal("delete must report presence exactly once")
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}
