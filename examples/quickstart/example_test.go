package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// after barrier at cycle 932: sum = 2080
	// total: 934 cycles for 64 fetch&adds + 1 tone barrier
	// wireless messages: 65, collisions: 0, channel utilization: 34.80%
	// tone barriers completed: 1
}
