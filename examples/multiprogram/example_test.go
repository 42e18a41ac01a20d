package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// program A: counter=4, released at cycle 59
	// program B: counter=8, released at cycle 115
	// tone barriers completed: 2 (both programs, one shared Tone channel)
	// protection works: bmem: node 4 pid 2 accessed addr 0 owned by pid 1
}
