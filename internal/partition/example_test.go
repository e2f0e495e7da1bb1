package partition_test

import (
	"fmt"

	"pacevm/internal/partition"
)

// The allocator's search space for a 3-VM job of two CPU VMs (type 0)
// and one I/O VM (type 1): every distinct way to split the job across
// servers, each as its first restricted growth string, with its rank
// among all B(3) = 5 set partitions. [0 1 1] is missing: it splits the
// job as [0 1 0] does, a CPU VM alone and a CPU VM with the I/O VM.
func ExampleDistinct() {
	n, err := partition.Distinct([]uint8{0, 0, 1}, func(rgs []int, rank int) {
		fmt.Println(rgs, rank)
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("distinct:", n, "of", partition.Bell(3))
	// Output:
	// [0 0 0] 0
	// [0 0 1] 1
	// [0 1 0] 2
	// [0 1 2] 4
	// distinct: 4 of 5
}

func ExampleBell() {
	fmt.Println(partition.Bell(4), partition.Bell(8))
	// Output: 15 4140
}
