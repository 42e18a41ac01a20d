package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// WiSync   : 50 batches in   1898 cycles (38 cycles/batch), checksum 19900 (want 19900)
	// Baseline : 50 batches in  30156 cycles (603 cycles/batch), checksum 19900 (want 19900)
}
