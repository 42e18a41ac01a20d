package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// Synchronized storm: cycles/message to drain N simultaneous senders
	//        N   backoff+fifo   backoff+csma          token  adaptive+csma
	//        4            6.5            9.8            6.0            9.8
	//       16            5.8           10.0            6.0           10.0
	//       64            5.7            9.8            6.0            7.7
	//      256            5.2           11.3            6.0            7.4
	//
	// Collision counts for the 256-node storm (why the ranking flips):
	//   backoff+fifo   collisions=32    token-waits=0      mode-switches=0
	//   backoff+csma   collisions=440   token-waits=0      mode-switches=0
	//   token          collisions=0     token-waits=256    mode-switches=0
	//   adaptive+csma  collisions=178   token-waits=256    mode-switches=1
	//
	// Lone sender, 40 messages on a 64-node ring: total cycles
	//   backoff+fifo      320
	//   backoff+csma      320
	//   token            2817
	//   adaptive+csma     320
}
