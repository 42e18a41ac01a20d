package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// core 47 found the key at cycle 780
	// probes executed: 162 of 256 possible (early stop saved 37%)
}
