module dbp/bench

go 1.22

require dbp v0.0.0

replace dbp => ../
