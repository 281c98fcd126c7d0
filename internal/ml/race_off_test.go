//go:build !race

package ml

const raceEnabled = false
