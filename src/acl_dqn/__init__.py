"""Curriculum-taught DQN dialogue policy training for movie-ticket booking.

A teacher Q-network selects user goals for a student Q-network that learns
a dialogue policy against an agenda-based user simulator, under three
curriculum schedules with an over-repetition penalty.
"""
