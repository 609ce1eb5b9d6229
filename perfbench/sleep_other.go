//go:build !linux

package main

import "time"

// preciseSleeper falls back to time.Sleep off Linux.
type preciseSleeper struct{}

func (preciseSleeper) lock()                 {}
func (preciseSleeper) unlock()               {}
func (preciseSleeper) sleep(d time.Duration) { time.Sleep(d) }
