import sys

# the engine, typechecker and renderer walk deep terms recursively, and so
# does the substitution evaluator the machine is tested against
sys.setrecursionlimit(20_000)
