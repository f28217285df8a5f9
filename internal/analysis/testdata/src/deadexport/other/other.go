// Package other stands for another internal package whose test names lib.
package other

func double(x int) int { return 2 * x }
