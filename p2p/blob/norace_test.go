//go:build !race

package blob_test

const raceEnabled = false
