//go:build race

package zstream_test

func init() { raceEnabled = true }
