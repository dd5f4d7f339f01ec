//go:build !linux

package main

import "time"

// sleep blocks for about d.
func sleep(d time.Duration) { time.Sleep(d) }
