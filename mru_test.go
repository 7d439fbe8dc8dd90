package hypar

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nn"
)

// TestMRUOrder pins the table's recency semantics: a full table evicts
// its least recently used entry, and both get and put refresh.
func TestMRUOrder(t *testing.T) {
	m := newMRU[int, string](2)
	m.put(1, "a")
	m.put(2, "b")
	m.put(3, "c") // evicts 1
	if _, ok := m.get(1); ok {
		t.Error("least recently used entry 1 survived a full insert")
	}
	if v, ok := m.get(2); !ok || v != "b" {
		t.Errorf("get(2) = %q, %v", v, ok)
	}
	m.put(4, "d") // 2 was refreshed, so 3 goes
	if _, ok := m.get(3); ok {
		t.Error("entry 3 survived although 2 was used more recently")
	}
	m.put(2, "b2") // refresh in place
	if v, ok := m.get(2); !ok || v != "b2" || m.len() != 2 {
		t.Errorf("get(2) = %q, %v with %d entries after refresh", v, ok, m.len())
	}
	if v, ok := m.get(4); !ok || v != "d" {
		t.Errorf("get(4) = %q, %v", v, ok)
	}
}

// TestEvaluatorMemosBounded drives one Evaluator through 1,000 distinct
// linkMbps configs over more model names than the warm memo holds: the
// memo stays within its bound, and every Result equals the one a fresh
// Evaluator computes — whether its warm-start hint hit or was evicted.
func TestEvaluatorMemosBounded(t *testing.T) {
	models := make([]*Model, evaluatorWarm+8)
	for i := range models {
		models[i] = nn.LenetC()
		models[i].Name = fmt.Sprintf("lenet-%d", i)
	}
	r := rand.New(rand.NewSource(1))
	ev := NewEvaluator()
	for i := 0; i < 1000; i++ {
		cfg := Config{Batch: 32, Levels: 3, LinkMbps: 1600 + float64(i)}
		m := models[r.Intn(len(models))]
		s := Strategies[r.Intn(len(Strategies))]
		got, err := ev.Run(m, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEvaluator().Run(m, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d (%v on %s): reused evaluator's result differs from a fresh one", i, s, m.Name)
		}
		if n := ev.warm.len(); n > evaluatorWarm {
			t.Fatalf("warm memo holds %d entries, bound %d", n, evaluatorWarm)
		}
	}
	if ev.warm.len() != evaluatorWarm {
		t.Errorf("warm memo holds %d plans, want it full (%d)", ev.warm.len(), evaluatorWarm)
	}
}

// TestAllocsMRUFull pins the memo bound's cost: inserting new keys into
// a full table allocates nothing and keeps its size.
func TestAllocsMRUFull(t *testing.T) {
	m := newMRU[string, int](evaluatorWarm)
	// One key more than the table holds: each insert, cycling through
	// them, misses and evicts.
	keys := make([]string, evaluatorWarm+1)
	for i := range keys {
		keys[i] = fmt.Sprint("model-", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		m.put(keys[i%len(keys)], i)
	})
	if allocs != 0 || m.len() != evaluatorWarm {
		t.Errorf("full-table insert allocates %.1f objects and holds %d entries, want 0 and %d", allocs, m.len(), evaluatorWarm)
	}
}
