package partition_test

import (
	"fmt"

	"pacevm/internal/partition"
)

// The allocator's search space for a 3-VM job: every way to split the
// set across servers.
func ExampleForEach() {
	n, err := partition.ForEach(3, func(blocks [][]int) bool {
		fmt.Println(blocks)
		return true
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("total:", n)
	// Output:
	// [[0 1 2]]
	// [[0 1] [2]]
	// [[0 2] [1]]
	// [[0] [1 2]]
	// [[0] [1] [2]]
	// total: 5
}

func ExampleBell() {
	fmt.Println(partition.Bell(4), partition.Bell(8))
	// Output: 15 4140
}
