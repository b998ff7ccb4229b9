//go:build race

package blob_test

// raceEnabled reports a -race build, where sync.Pool drops a random
// quarter of what it is given and allocation counts stop meaning much.
const raceEnabled = true
