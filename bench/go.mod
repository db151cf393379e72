module strgindex/bench

go 1.22

require strgindex v0.0.0

replace strgindex => ../
