//go:build !race

package testenv

const race = false
