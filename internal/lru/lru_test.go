package lru

import (
	"fmt"
	"testing"
)

// TestLRUOrder pins the recency contract: Get refreshes, eviction takes
// the least recently used entry.
func TestLRUOrder(t *testing.T) {
	c := New[string, string](2)
	c.Put("a", "A")
	c.Put("b", "B")
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatal("a missing")
	}
	c.Put("c", "C") // evicts b (a was refreshed)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if c.Len() != 2 || c.Max() != 2 {
		t.Errorf("Len=%d Max=%d", c.Len(), c.Max())
	}
	// Put on an existing key refreshes the value in place.
	c.Put("a", "A2")
	if v, _ := c.Get("a"); v != "A2" {
		t.Errorf("refresh lost: %q", v)
	}
	if c.Len() != 2 {
		t.Errorf("refresh grew the cache to %d", c.Len())
	}
}

// TestLRUDisabled pins the max <= 0 contract: nothing is retained.
func TestLRUDisabled(t *testing.T) {
	c := New[string, int](-1)
	c.Put("x", 1)
	if _, ok := c.Get("x"); ok || c.Len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

// TestLRUBoundUnderChurn floods the cache and checks the bound holds.
func TestLRUBoundUnderChurn(t *testing.T) {
	const max = 16
	c := New[string, int](max)
	for i := 0; i < 40*max; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
		if n := c.Len(); n > max {
			t.Fatalf("len %d exceeds bound %d after %d puts", n, max, i+1)
		}
	}
	if c.Len() != max {
		t.Errorf("steady-state len %d, want %d", c.Len(), max)
	}
}

// TestSizedBudget pins the cost-aware bound: the summed cost never
// exceeds the budget, eviction is LRU over cost, and an entry larger
// than the whole budget is refused without disturbing residents.
func TestSizedBudget(t *testing.T) {
	cost := func(k, v string) int { return len(k) + len(v) }
	c := NewSized[string, string](20, cost)
	c.Put("a", "1234") // cost 5
	c.Put("b", "1234") // cost 5
	c.Put("c", "1234") // cost 5 → total 15
	if got := c.Cost(); got != 15 {
		t.Fatalf("Cost=%d, want 15", got)
	}
	c.Get("a")             // refresh a
	c.Put("d", "12345678") // cost 9: must evict b (LRU), total 20
	if got := c.Cost(); got > 20 {
		t.Fatalf("Cost=%d exceeds the 20 budget", got)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; LRU should have shed it first")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("refreshed a was evicted out of order")
	}
	// An entry pricier than the entire budget is never stored and never
	// flushes the cache to make room.
	before := c.Len()
	c.Put("huge", string(make([]byte, 64)))
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget entry was stored")
	}
	if c.Len() != before {
		t.Errorf("over-budget Put disturbed residents: Len %d → %d", before, c.Len())
	}

	// A refused Put evicts nothing; the next insert sheds in LRU order.
	c = NewSized[string, string](6, func(_, v string) int { return len(v) })
	c.Put("a", "123")     // 3
	c.Put("b", "123")     // 3
	c.Put("c", "1234567") // 7 > 6: refused
	if _, ok := c.Get("c"); ok || c.Len() != 2 {
		t.Fatalf("refused Put stored c or evicted a resident: Len=%d", c.Len())
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("refused Put evicted a")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("refused Put evicted b")
	}
	c.Put("d", "12345") // 5: sheds a, then b
	if _, ok := c.Get("a"); ok {
		t.Error("a survived d's insert")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived d's insert")
	}
	if _, ok := c.Get("d"); !ok || c.Len() != 1 {
		t.Errorf("d missing or stray residents: Len=%d", c.Len())
	}
}

// TestSizedRefreshCost pins that refreshing a key re-prices it: the
// budget accounts the new cost and sheds colder entries if the refresh
// grew past the bound.
func TestSizedRefreshCost(t *testing.T) {
	cost := func(k, v string) int { return len(v) }
	c := NewSized[string, string](10, cost)
	c.Put("a", "12")        // 2
	c.Put("b", "12")        // 2
	c.Put("c", "12")        // 2 → total 6
	c.Put("c", "123456789") // c grows to 9: a and b must go
	if got := c.Cost(); got > 10 {
		t.Fatalf("Cost=%d exceeds the 10 budget after refresh", got)
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("refreshed entry evicted")
	}
	if c.Len() != 1 {
		t.Errorf("Len=%d, want 1 (a and b shed to fit c's refresh)", c.Len())
	}
}
