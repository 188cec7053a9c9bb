package stm_test

import (
	"fmt"
	"sync"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

// Example shows the minimal transaction: read, write, retry-until-commit.
func Example() {
	rt := stm.New(1, cm.NewPolka())
	v := stm.NewTVar(41)
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, stm.Read(tx, v)+1)
	})
	fmt.Println(v.Peek())
	// Output: 42
}

// ExampleThread_Atomic demonstrates that concurrent read-modify-write
// transactions never lose updates, whatever the interleaving.
func ExampleThread_Atomic() {
	const threads, perThread = 4, 100
	rt := stm.New(threads, cm.NewGreedy())
	counter := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < perThread; j++ {
				th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, counter, stm.Read(tx, counter)+1)
				})
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	fmt.Println(counter.Peek())
	// Output: 400
}

// ExampleModify updates a variable in place.
func ExampleModify() {
	rt := stm.New(1, cm.NewPolka())
	v := stm.NewTVar(10)
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Modify(tx, v, func(x int) int { return x * x })
	})
	fmt.Println(v.Peek())
	// Output: 100
}

// ExampleTxInfo shows the per-transaction statistics Atomic returns.
func ExampleTxInfo() {
	rt := stm.New(1, cm.NewPolka())
	v := stm.NewTVar(0)
	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, 7)
	})
	fmt.Println(info.Attempts, info.Aborts())
	// Output: 1 0
}
