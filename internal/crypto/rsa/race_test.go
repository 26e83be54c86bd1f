//go:build race

package rsa

func init() { raceEnabled = true }
