package main

import "testing"

// TestExampleRuns runs the example end to end: a log.Fatal inside it
// fails the test binary.
func TestExampleRuns(t *testing.T) { main() }
