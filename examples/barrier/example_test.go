package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// cores       Baseline   Baseline+   WiSyncNoT      WiSync (cycles/barrier)
	// 16              1503         408         138          63
	// 64             17274         750         378          69
	// 128            63109        1058         698          78
}
