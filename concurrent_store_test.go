package crackdb

import (
	"fmt"
	"sync"
	"testing"
)

// TestStoreConcurrentTables drives queries and inserts against multiple
// tables from many goroutines: table resolution happens under the
// store's read lock, so cross-table traffic must neither race (run with
// -race) nor corrupt per-table answers.
func TestStoreConcurrentTables(t *testing.T) {
	const (
		tables     = 4
		rows       = 5_000
		goroutines = 8
		iters      = 200
	)
	s := New()
	for i := 0; i < tables; i++ {
		if err := s.LoadTapestry(fmt.Sprintf("t%d", i), rows, 1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				table := fmt.Sprintf("t%d", (worker+i)%tables)
				switch {
				case worker%4 == 3 && i%50 == 0:
					// Tapestry columns hold 1..rows; inserts land outside
					// every probed range so counts stay deterministic.
					if err := s.InsertRows(table, [][]int64{{-1}}); err != nil {
						errs <- err
						return
					}
				default:
					lo := int64((worker*37+i*11)%(rows-100) + 1)
					got, err := s.Count(table, "c0", lo, lo+99)
					if err != nil {
						errs <- err
						return
					}
					// Each column is a permutation of 1..rows: a closed
					// range of width 100 inside the domain holds exactly
					// 100 values.
					if got != 100 {
						errs <- fmt.Errorf("worker %d: count(%s, [%d,%d]) = %d, want 100", worker, table, lo, lo+99, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLineageConcurrentWithCracks renders a column's lineage while
// another goroutine keeps cracking it. Rendering works on a snapshot
// taken under the column's read lock, so it must never touch state a
// concurrent crack is mutating (run with -race).
func TestLineageConcurrentWithCracks(t *testing.T) {
	const rows = 5_000
	s := New()
	if err := s.LoadTapestry("t", rows, 1, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 300; i++ {
			lo := int64((i*7919)%(rows-100) + 1)
			if got, err := s.Count("t", "c0", lo, lo+99); err != nil || got != 100 {
				t.Errorf("count(t, [%d,%d]) = %d, %v; want 100", lo, lo+99, got, err)
				return
			}
		}
	}()
	for renders := 0; ; renders++ {
		select {
		case <-done:
			wg.Wait()
			if renders == 0 {
				t.Log("cracking finished before the first render")
			}
			return
		default:
		}
		if _, err := s.Lineage("t", "c0"); err != nil {
			t.Fatal(err)
		}
	}
}
